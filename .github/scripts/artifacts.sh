#!/usr/bin/env bash
# Usage: .github/scripts/artifacts.sh OUT_DIR   (run from the repository root)
#
# Writes one tree of CLI artifacts into OUT_DIR: every artifact command on
# the bundled scenarios, each run's stdout kept as
# <scenario>-<command>.stdout beside its artifacts.  Two runs, on one
# checkout or on two, must give trees whose `diff -r` is empty (acceptance
# criterion 9).  A numpy RuntimeWarning, or any nonzero exit, fails the run.
#
# `bohl --xi 1,1` needs a d = 2 system.  `oracle` is the only command that
# reaches transition(); it runs on the four periodic scenarios (the other
# three exit 3 by design).  The bundled scenarios are one-sided, so the
# --two-sided runs are the only ones that carry orbits backward; they write
# to their own directory because their artifact names equal the one-sided
# ones.  `verify --two-sided` runs on every kind of orbit system the
# containment checks sweep: a diagonal system, a sampled two-dimensional
# fiber (rotation), and restricted fibers of a general and of an upper
# triangular system.  `verify --seed 7` on rotation, whose two-dimensional
# fiber holds the only sampled block of the bundled scenarios, checks the
# sampled rows at a second seed, in a directory of its own.  The two
# `spectrum --refine-tol 1e-16` runs also write to their own directory;
# their brackets are bisected down to adjacent floats, below the spacing of
# any tolerance.
set -eo pipefail
out=${1:?usage: artifacts.sh OUT_DIR}

run() {  # run <artifact dir> <scenario name> <command> [flags...]
  local dir=$1 name=$2 cmd=$3
  shift 3
  mkdir -p "$dir"
  PYTHONPATH=src python -W error::RuntimeWarning -m dichospec "$cmd" "src/dichospec/scenarios/$name.json" "$@" --out "$dir" --format json > "$dir/$name-$cmd.stdout"
}

for f in src/dichospec/scenarios/*.json; do
  for cmd in spectrum bundles triangularize verify "dichotomy --gamma 1.0"; do
    run "$out" "$(basename "$f" .json)" $cmd
  done
done
for name in autonomous-diagonal rotation seeded-pair-d2 triangular-constant; do
  run "$out" "$name" bohl --xi 1,1
done
for name in autonomous-diagonal periodic-scalar rotation triangular-constant; do
  run "$out" "$name" oracle
done
for name in autonomous-diagonal rotation seeded-pair-d2 triangular-constant; do
  run "$out/two-sided" "$name" verify --two-sided
done
run "$out/seed-7" rotation verify --seed 7
for name in autonomous-diagonal seeded-pair-d2; do
  run "$out/two-sided" "$name" bohl --xi 1,1 --two-sided
  run "$out/float-resolution" "$name" spectrum --refine-tol 1e-16
done
