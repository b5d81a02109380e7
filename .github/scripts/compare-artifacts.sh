#!/usr/bin/env bash
# Usage: .github/scripts/compare-artifacts.sh REV   (run from the repository root)
#
# Checks that the working tree writes the same CLI artifacts as commit REV
# (acceptance criterion 9 across two checkouts).  REV is exported with
# `git archive` into a temporary directory, artifacts.sh runs there and in
# the working tree, and the two trees are compared with `diff -r`.  Exits 0
# when they are identical; prints the differences and exits 1 otherwise.
set -eo pipefail
rev=${1:?usage: compare-artifacts.sh REV}
root=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/src"
git archive "$rev" | tar -x -C "$tmp/src"
(cd "$tmp/src" && bash "$root/.github/scripts/artifacts.sh" "$tmp/old")
bash .github/scripts/artifacts.sh "$tmp/new"
diff -r "$tmp/old" "$tmp/new"
echo "$(find "$tmp/new" -type f | wc -l) artifacts of $rev and the working tree are identical"
