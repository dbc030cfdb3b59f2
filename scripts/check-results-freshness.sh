#!/bin/sh
# Fails if the checked-in results/ atlas has drifted from what the code
# renders today: the transfer-matrix artifacts of `specchar matrix`, and
# the full experiment report with its two Graphviz figures. Both
# pipelines are deterministic end to end (fixed generation seed,
# index-derived split seeds, fixed-format renderers, no timing or paths
# in the report), so a byte diff means someone changed the suites, the
# models, an experiment or a renderer without regenerating the atlas —
# regenerate with:
#
#     go run ./cmd/specchar matrix -o results
#     go run ./cmd/experiments -dotdir results >results/full_run.txt
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go run ./cmd/specchar matrix -o "$tmp" >/dev/null
go run ./cmd/experiments -dotdir "$tmp" >"$tmp/full_run.txt"

status=0
for f in transfer_matrix.json transfer_matrix.md transfer_matrix.svg \
    full_run.txt figure1.dot figure2.dot; do
    if ! cmp -s "results/$f" "$tmp/$f"; then
        echo "results/$f is stale (differs from a fresh render)" >&2
        status=1
    fi
done
if [ "$status" -ne 0 ]; then
    echo "regenerate with: go run ./cmd/specchar matrix -o results" >&2
    echo "            and: go run ./cmd/experiments -dotdir results >results/full_run.txt" >&2
    exit 1
fi
echo "results/ atlas is fresh"
