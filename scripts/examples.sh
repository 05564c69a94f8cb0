#!/usr/bin/env bash
# Runs every example end to end and diffs its stdout against the committed
# examples/<name>/expected.txt. Each example runs from its own temp dir, since
# some (observability) write output files into the working directory.
#
# Usage: scripts/examples.sh            # check every example
#        scripts/examples.sh -update    # rewrite expected.txt (intended changes only)
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
status=0
for dir in "$root"/examples/*/; do
	name=$(basename "$dir")
	go build -o "$work/$name" "./examples/$name"
	mkdir "$work/run-$name"
	(cd "$work/run-$name" && "$work/$name") > "$work/$name.out"
	if [ "${1:-}" = "-update" ]; then
		cp "$work/$name.out" "$dir/expected.txt"
	elif ! diff -u "$dir/expected.txt" "$work/$name.out"; then
		echo "example $name: output differs from expected.txt" >&2
		status=1
	else
		echo "example $name: ok"
	fi
done
exit $status
