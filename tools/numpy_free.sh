#!/usr/bin/env bash
# The calls that never import numpy, each with the exit code and, for
# the goldens, the bytes it must give. Run it on a Python where numpy
# cannot be imported:
#
#     bash tools/numpy_free.sh
#
# Any call that loads numpy then fails, and so does the script. It runs
# from the root of the checkout that holds it, with src on PYTHONPATH.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# the README's calls that never import numpy; each must exit 0
for call in "qubits --n 15" \
            "compile-base --p 3 --q 5" \
            "circuit --kind compiled --p 3 --q 5" \
            "factor --mode compiled --p 3 --q 5" \
            "factor --mode coin --p 3 --q 5" \
            "simulate --kind compiled --p 3 --q 5" \
            "coin-demo --p 3 --q 5" \
            "verify-supplementary --fixture rsa768"; do
  echo "shorsim $call"
  python -m shorsim.cli $call > /dev/null
done

# one rule for every integer flag: spellings that int() takes but
# plain decimal does not exit 2, here on seeds and tosses; a toss
# count above 2^24 (here past sys.maxsize) is refused with exit 4
for case in "2 simulate --kind compiled --p 3 --q 5 --seed 1_0" \
            "2 coin-demo --p 3 --q 5 --tosses +3" \
            "4 coin-demo --p 3 --q 5 --tosses 9223372036854775808"; do
  expected=${case%% *}
  call=${case#* }
  echo "shorsim $call"
  code=0
  python -m shorsim.cli $call > /dev/null 2>&1 || code=$?
  [ "$code" -eq "$expected" ] || { echo "exit $code, expected $expected"; exit 1; }
done

# the pinned bytes of the pure-Python stream and of the compiled base
echo "goldens"
python -m shorsim.cli factor --p 3 --q 5 --mode coin --seed 5 | cmp - tests/golden/factor_p3_q5_coin_seed5.json
python -m shorsim.cli factor --p 3 --q 7 --mode compiled --seed 3 | cmp - tests/golden/factor_p3_q7_compiled_seed3.json
python -m shorsim.cli coin-demo --p 3 --q 5 --tosses 10 --seed 0 | cmp - tests/golden/coin_demo_p3_q5_tosses10_seed0.json

# help into a pipe whose reader is gone exits 141, as a result does;
# stdout is buffered here, so the write fails in the flush at exit
echo "help into a closed pipe"
python -c 'import os, subprocess, sys; r, w = os.pipe(); os.close(r); code = subprocess.run([sys.executable, "-m", "shorsim.cli", "--help"], stdout=w).returncode; sys.exit(None if code == 141 else f"exit {code}, expected 141")'

# integers past the interpreter's 4300-digit int/str conversion
# limit: a 5000-digit seed in the text report exits 0, and a
# 5001-digit modulus that shares a factor with the base exits 2
echo "integers past the conversion limit"
seed=$(python -c 'print("7" * 5000)')
python -m shorsim.cli factor --p 3 --q 5 --mode coin --format text --seed "$seed" > /dev/null
n=$(python -c 'print("1" + "0" * 5000)')
code=0
python -m shorsim.cli circuit --kind semiclassical --a 2 --n "$n" --s 1 > /dev/null 2>&1 || code=$?
[ "$code" -eq 2 ] || { echo "exit $code, expected 2"; exit 1; }

# Baillie-PSW on the rsa768 primes, their product, the strong Lucas
# pseudoprime 5777 and the base-2 strong pseudoprime 2047
echo "primality"
python -c 'from shorsim.fixtures import load_fixture; from shorsim.numtheory import is_probable_prime as ok; fx = load_fixture("rsa768"); assert ok(fx.p) and ok(fx.q); assert not any(map(ok, (fx.p * fx.q, 5777, 2047)))'
echo "all calls ran without numpy"
