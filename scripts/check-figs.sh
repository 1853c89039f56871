#!/usr/bin/env bash
# Figure gate: regenerates every section of experiments_default.txt at
# default scale, except Figure 2 and Optimum bracketing (both wait on
# the LP solver, minutes each), and compares each section byte for byte
# with its committed copy: 12 of the file's 14 sections. A section that
# differs or is missing fails the gate and is named. About a minute on
# two cores.
#
# Usage: scripts/check-figs.sh
set -euo pipefail
cd "$(dirname "$0")/.."

FIGS=3,4,5,6,7,ablations,prefetch,baselines,hierarchy,constrained,sensitivity,flash,cdnwide
SKIP='Figure 2|Optimum bracketing \(extension\)'

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/want" "$tmp/got"

# sections FILE DIR writes each "==== <name> (scale=...) ====" section of
# FILE, from its header to the next one, to DIR/<n>, and "<n><TAB><name>"
# lines to DIR/names.
sections() {
	awk -v d="$2" '
		/^==== / {
			n++
			name = $0
			sub(/^==== /, "", name)
			sub(/ \(scale=[a-z]+\) ====$/, "", name)
			printf "%d\t%s\n", n, name > (d "/names")
		}
		n { print > (d "/" n) }
	' "$1"
}

go run ./cmd/experiments -fig "$FIGS" -scale default > "$tmp/got.txt"
sections experiments_default.txt "$tmp/want"
sections "$tmp/got.txt" "$tmp/got"

fail=0
checked=0
while IFS=$'\t' read -r n name; do
	if [[ "$name" =~ ^($SKIP)$ ]]; then
		echo "skip  $name"
		continue
	fi
	m="$(awk -F'\t' -v want="$name" '$2 == want { print $1; exit }' "$tmp/got/names")"
	if [ -z "$m" ]; then
		echo "FAIL  $name: not printed by experiments -fig $FIGS"
		fail=1
	elif cmp -s "$tmp/want/$n" "$tmp/got/$m"; then
		echo "ok    $name"
		checked=$((checked + 1))
	else
		echo "FAIL  $name differs from experiments_default.txt:"
		diff "$tmp/want/$n" "$tmp/got/$m" | head -20 || true
		fail=1
	fi
done < "$tmp/want/names"
if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "check-figs: $checked sections identical to experiments_default.txt"
