#!/usr/bin/env bash
# Report which programs keep each library function alive.
#
# Builds the library with its tests, benches and examples, and the
# sibylbench program, all with -ffunction-sections and --gc-sections,
# so that a linked binary holds only the library functions it reaches.
# Every function libsibyl.a defines (strong text symbols in namespace
# sibyl) is then sorted by the binaries that still hold it:
#
#   unreached     no binary;
#   tests only    test_* binaries only.
#
# sibylbench, the figure and ablation programs under bench/, and the
# examples count as programs.
#
# A function inlined into every caller also reads "unreached", so grep
# for callers before deleting one. This is a report, not a gate: it
# exits 0 whatever the counts.
#
# Usage: tools/dead_api.sh [build-dir]    (default: build-dead-api)

set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="${1:-$root/build-dead-api}"
flags=(-DCMAKE_BUILD_TYPE=Release -DSIBYL_NATIVE=OFF
       "-DCMAKE_CXX_FLAGS=-ffunction-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

build() {
    local src="$1" dir="$2"
    shift 2
    mkdir -p "$dir"
    if ! { cmake -S "$src" -B "$dir" "${flags[@]}" &&
           cmake --build "$dir" -j "$(nproc)" "$@"; } > "$dir/build.log" 2>&1
    then
        tail -n 30 "$dir/build.log"
        exit 1
    fi
}
build "$root" "$out/all"
build "$root/sibylbench" "$out/sibylbench" --target sibylbench

# Strong text symbols in namespace sibyl (mangled _ZN5sibyl / _ZNK5sibyl).
functions() {
    nm --defined-only "$1" 2>/dev/null |
        awk '$2 == "T" && $3 ~ /^_ZNK?5sibyl/ { print $3 }' | sort -u
}

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
functions "$out/all/libsibyl.a" > "$tmp/library"

# One "symbol kind" line per (function, binary that holds it).
for bin in "$out"/all/test_* "$out"/all/bench_* "$out"/all/example_* \
           "$out/sibylbench/sibylbench"; do
    [ -x "$bin" ] && [ -f "$bin" ] || continue
    case "$(basename "$bin")" in
        test_*) kind=test ;;
        *) kind=program ;;
    esac
    functions "$bin" | awk -v k="$kind" '{ print $1, k }'
done | sort -u > "$tmp/reached"

awk '
    NR == FNR { lib[$1] = 1; next }
    { kinds[$1] = kinds[$1] " " $2 }
    END {
        for (f in lib) {
            k = kinds[f]
            if (k == "")
                print "unreached", f
            else if (k !~ /program/)
                print "tests-only", f
        }
    }
' "$tmp/library" "$tmp/reached" | sort > "$tmp/report"

total=$(wc -l < "$tmp/library")
count() { grep -c "^$1 " "$tmp/report" || true; }
echo "library functions: $total"
echo "unreached:         $(count unreached)"
echo "tests only:        $(count tests-only)"
for cat in unreached tests-only; do
    echo
    echo "== $cat"
    grep "^$cat " "$tmp/report" | cut -d' ' -f2 | c++filt | sort
done
