#!/usr/bin/env bash
# Usage: .github/scripts/compare-artifacts.sh REV   (run from the repository root)
#
# Checks that the working tree writes the same CLI artifacts as commit REV
# (acceptance criterion 9 across two checkouts).  REV is exported with
# `git archive` into a temporary directory, artifacts.sh runs there and in
# the working tree, and the two trees are compared with `diff -r`.  Exits 0
# when they are identical.  Otherwise it prints the differences, then the
# check, status and row count of each report in every differing
# *-verify.json, for REV (old) and the working tree (new), and exits 1.
set -eo pipefail
rev=${1:?usage: compare-artifacts.sh REV}
root=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/src"
git archive "$rev" | tar -x -C "$tmp/src"
(cd "$tmp/src" && bash "$root/.github/scripts/artifacts.sh" "$tmp/old")
bash .github/scripts/artifacts.sh "$tmp/new"
if ! diff -r "$tmp/old" "$tmp/new"; then
  for rel in $(cd "$tmp/new" && find . -name '*-verify.json' | sort); do
    rel=${rel#./}
    cmp -s "$tmp/old/$rel" "$tmp/new/$rel" && continue
    for side in old new; do
      [ -f "$tmp/$side/$rel" ] || { echo "$rel $side: missing"; continue; }
      python -c 'import json, sys
rel, side, path = sys.argv[1:]
for report in json.load(open(path))["reports"]:
    print(rel, side + ":", report["check"], report["status"], len(report["rows"]), "rows")
' "$rel" "$side" "$tmp/$side/$rel"
    done
  done
  exit 1
fi
echo "$(find "$tmp/new" -type f | wc -l) artifacts of $rev and the working tree are identical"
