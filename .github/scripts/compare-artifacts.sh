#!/usr/bin/env bash
# Usage: .github/scripts/compare-artifacts.sh REV   (run from the repository root)
#
# Checks that the working tree writes the same CLI artifacts as commit REV
# (acceptance criterion 9 across two checkouts).  REV is exported with
# `git archive` into a temporary directory, artifacts.sh runs there and in
# the working tree, and the two trees are compared with `diff -r`.  Exits 0
# when they are identical.  Otherwise it prints the differences, then the
# check, status and row count of each report in every differing
# *-verify.json, for REV (old) and the working tree (new), then whether
# each report present on both sides is byte-identical as canonical JSON,
# and exits 1.
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
    PYTHONPATH=src python -c 'import json, os, sys
from dichospec.scenario import canonical_json
rel, *paths = sys.argv[1:]
reports = {}
for side, path in zip(("old", "new"), paths):
    if not os.path.exists(path):
        print(rel, side + ": missing")
        continue
    reports[side] = {r["check"]: r for r in json.load(open(path))["reports"]}
    for r in reports[side].values():
        print(rel, side + ":", r["check"], r["status"], len(r["rows"]), "rows")
if len(reports) == 2:
    for check in (c for c in reports["old"] if c in reports["new"]):
        same = canonical_json(reports["old"][check]) == canonical_json(reports["new"][check])
        print(rel, "both:", check, "identical" if same else "differs")
' "$rel" "$tmp/old/$rel" "$tmp/new/$rel"
  done
  exit 1
fi
echo "$(find "$tmp/new" -type f | wc -l) artifacts of $rev and the working tree are identical"
