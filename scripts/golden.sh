#!/usr/bin/env bash
# Regenerates the answer outputs recorded under testdata/golden and diffs
# them against the committed files, so a change that must leave every
# estimate bit-identical can show it did:
#
#   bash scripts/golden.sh            # regenerate and diff; exit 1 on any difference
#   bash scripts/golden.sh -update    # regenerate and overwrite the committed files
#
# Run it from the repository root. The outputs are the sitbench accuracy
# figures 5, 6, 7, lemma1 and a6 at -fact 2000 -queries 12 (without their
# "completed in" timing line), the five examples, and one sitexplain query.
# Every one of them prints the same bytes on every run and at any
# GOMAXPROCS. Binaries are built into a temporary directory that is removed
# on exit.
set -euo pipefail

update=0
case "${1:-}" in
"") ;;
-update) update=1 ;;
*)
	echo "usage: bash scripts/golden.sh [-update]" >&2
	exit 2
	;;
esac

golden=testdata/golden
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
out="$tmp/out"
mkdir -p "$out"

go build -o "$tmp/sitbench" ./cmd/sitbench
go build -o "$tmp/sitexplain" ./cmd/sitexplain
examples=(memointegration planquality quickstart sitadvisor skewedshop)
for ex in "${examples[@]}"; do
	go build -o "$tmp/example_$ex" "./examples/$ex"
done

for fig in 5 6 7 lemma1 a6; do
	"$tmp/sitbench" -fig "$fig" -fact 2000 -queries 12 | grep -v '^completed in ' >"$out/fig$fig.txt"
done
for ex in "${examples[@]}"; do
	"$tmp/example_$ex" >"$out/example_$ex.txt"
done
"$tmp/sitexplain" -join sales.customer_fk=customer.id -filter customer.hot:9000:10000 >"$out/sitexplain.txt"

if [ "$update" = 1 ]; then
	mkdir -p "$golden"
	rm -f "$golden"/*.txt
	cp "$out"/*.txt "$golden"/
	echo "golden: wrote $(ls "$out" | wc -l) files to $golden"
	exit 0
fi
if ! diff -ru "$golden" "$out"; then
	echo "golden: outputs differ from $golden (bash scripts/golden.sh -update rewrites them)" >&2
	exit 1
fi
echo "golden: $(ls "$out" | wc -l) outputs match $golden"
