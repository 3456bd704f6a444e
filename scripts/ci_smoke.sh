#!/usr/bin/env bash
# End-to-end smoke run of the fpcodes command line: exit codes, outputs and
# import logs of the commands below, in order.  The CI workflow runs it
# against the pip-installed entry point; against the source tree it runs as
#
#   FPCODES="python -m fpcodes.cli" PYTHONPATH=src bash scripts/ci_smoke.sh
#
# FPCODES is the command that starts the CLI (default: fpcodes), and the
# files go under RUNNER_TEMP (default: a fresh temporary directory, removed
# on exit).
set -e
FPCODES=${FPCODES:-fpcodes}
if [ -n "${RUNNER_TEMP:-}" ]; then
  out=$RUNNER_TEMP
else
  out=$(mktemp -d)
  trap 'rm -rf "$out"' EXIT
fi

$FPCODES --help
$FPCODES bounds --q 2 --k 2 --n 100
# the exact survival probability at its k = 2^14 limit: an unreduced
# integer sum, a report in well under a second, with the biased draw
# (q <= k; at q = 3 stinson_41 overflows first, and the report is
# refused) and with the uniform one (q > k)
timeout 10 $FPCODES bounds --q 16384 --k 16384 --n 16385
timeout 10 $FPCODES bounds --q 32 --k 16384 --n 1000000
timeout 10 $FPCODES bounds --q 16385 --k 16384 --n 1000000
$FPCODES bench --grid "q=3;k=2;n=20"
# every column of an lll-fp cell settles from one blocked B^T B
# product, so the exhaustive scan answers n = 20000 in about 3 s
# and prints no diagnostic
$FPCODES bench --grid "q=3;k=2;n=20000" 2> "$out/bench.err"
test ! -s "$out/bench.err"
# bounds, --help and the bound tables load no numpy, dataclasses,
# fractions, decimal or hashlib: the import logs of a bounds run
# and of --help must list none of them
python -X importtime -m fpcodes.cli bounds --q 2 --k 2 --n 100 2> "$out/imports.log"
python -X importtime -m fpcodes.cli --help 2> "$out/help-imports.log" > /dev/null
for log in imports help-imports; do
  for mod in numpy dataclasses fractions decimal hashlib; do
    if grep -q "$mod" "$out/$log.log"; then echo "$log: imported $mod"; exit 1; fi
  done
done
# the script against the package on the path (the installed one in CI)
python scripts/bound_tables.py --q 2 --k 2 --n 100
# large round trips: a 36 MB code whose row blocks are all one-width
# grids, and a q = 256 code whose rows mix widths; the bytes on
# stdout must be those of --out, and the file must read back
$FPCODES construct diagonal --q 3 --n 6000 --out "$out/big.txt"
$FPCODES construct diagonal --q 3 --n 6000 > "$out/big.out"
cmp "$out/big.txt" "$out/big.out"
$FPCODES verify --in "$out/big.txt" --property lambda --lam 0 --w 1
$FPCODES construct lll-ss --q 256 --k 3 --n 6000 --out "$out/mixed.txt"
$FPCODES construct lll-ss --q 256 --k 3 --n 6000 > "$out/mixed.out"
cmp "$out/mixed.txt" "$out/mixed.out"
# lam and w as the build derives them (its sidecar records them)
$FPCODES verify --in "$out/mixed.txt" --property lambda --lam 10 --w 22
# the local-lemma build admits the length the bounds report: its
# sidecar's t is the lll_lambda_length line, and the code passes
# the simulate command's guarantee check
$FPCODES construct lll-ss --q 3 --k 3 --n 300 --out "$out/ss300.txt"
t=$(python -c "import json, sys; print(json.load(open(sys.argv[1]))['t'])" "$out/ss300.txt.run.json")
test "$t" = "$($FPCODES bounds --q 3 --k 3 --n 300 | awk '$1 == "lll_lambda_length" {print $2}')"
$FPCODES simulate --in "$out/ss300.txt" --k 3 --trials 200 | grep -qx "guarantee true"
# a q <= k draw of t = 92 rows: the cover kernel's masks take two
# 64-bit words, so the numpy floor runs the multi-word path too
$FPCODES construct expurgate --q 2 --k 3 --n 40 --out "$out/dense.txt"
$FPCODES verify --in "$out/dense.txt" --property fp --k 3
$FPCODES verify --in "$out/dense.txt" --property ss --k 3
# the q > k expurgation at n = 1000: the pigeonhole cover search
# builds and certifies it in well under a second
$FPCODES construct expurgate --q 16 --k 3 --n 1000 --out "$out/x1000.txt"
$FPCODES verify --in "$out/x1000.txt" --property fp --k 3
# the cover kernel at n = 3000, q = 256: masks built from bit planes
# packed once a call, in blocks sized by work, build and certify
# the code in a few seconds
timeout 120 $FPCODES construct expurgate --q 256 --k 4 --n 3000 --seed 1 --out "$out/x3000.txt"
timeout 120 $FPCODES verify --in "$out/x3000.txt" --property fp --k 4 | grep -qx "passed true"
set +e
# a failed check whose coalition has hundreds of members answers
# with its witness: exit 1 and an empty stderr, not a traceback
python -c "print('3 3 600'); [print(' '.join([s] * 600)) for s in '120']" > "$out/same.txt"
$FPCODES verify --in "$out/same.txt" --property fp --k 520 > "$out/same.out" 2> "$out/same.err"; test $? -eq 1 || exit 1
grep -qx "witness_column 0" "$out/same.out" || exit 1
test ! -s "$out/same.err" || exit 1
# a non-ASCII byte is reported on its own line: exit 2, line 3
printf '3 2 2\n0 1\n1 \303\251\n' > "$out/utf8.txt"
$FPCODES verify --in "$out/utf8.txt" --property fp --k 1 2> "$out/utf8.err"; test $? -eq 2 || exit 1
grep -q "line 3:" "$out/utf8.err" || exit 1
# one member to place, an equality test: two equal columns frame
# each other at k = 1, and one other blocks a zero column at k = 2
printf '3 2 4\n1 1 2 0\n2 2 0 1\n' > "$out/equal.txt"
$FPCODES verify --in "$out/equal.txt" --property fp --k 1 > "$out/equal.out"; test $? -eq 1 || exit 1
grep -qx "witness_column 0" "$out/equal.out" || exit 1
grep -qx "witness_coalition 1" "$out/equal.out" || exit 1
printf '3 2 4\n0 1 2 1\n0 2 1 1\n' > "$out/zero.txt"
$FPCODES verify --in "$out/zero.txt" --property ss --k 2 > "$out/zero.out"; test $? -eq 1 || exit 1
grep -qx "witness_column 0" "$out/zero.out" || exit 1
grep -qx "witness_coalition 0,1" "$out/zero.out" || exit 1
# parameter errors map to exit 2, not a traceback's exit 1
# more symbols than numpy can shape, or than the expurgation's draw
# takes from its stream, refused before any array is sized
$FPCODES construct lll-ss --q 3 --k 3 --n 1000000000000000000000000000000; test $? -eq 2 || exit 1
$FPCODES construct diagonal --q 3 --k 3 --n 1000000000000000000000000000000; test $? -eq 2 || exit 1
$FPCODES construct expurgate --q 3 --k 3 --n 1000000000000000000000000000000; test $? -eq 2 || exit 1
$FPCODES construct expurgate --q 3 --k 3 --n 1000000; test $? -eq 2 || exit 1
# within MAX_N, but an array past any 64-bit address space: numpy refuses it
$FPCODES construct lll-ss --q 3 --k 3 --n 1000000000000; test $? -eq 2 || exit 1
$FPCODES bounds --q 100000000000000000 --k 3 --n 100; test $? -eq 2 || exit 1
$FPCODES construct lll-ss --q 70000 --k 2 --n 10; test $? -eq 2 || exit 1
$FPCODES bounds --q 3 --k "$(python -c 'print(2**513)')" --n "$(python -c 'print(2**513+1)')"; test $? -eq 2 || exit 1
$FPCODES construct lll-ss --q 3 --k "$(python -c 'print(2**1015)')" --n "$(python -c 'print(2**1015+1)')"; test $? -eq 2 || exit 1
# the exact survival probability is refused past k = 2^14, not formed
timeout 10 $FPCODES bounds --q 1125899906842624 --k 1000000 --n 10000000; test $? -eq 2 || exit 1
