"""A fixed piece of work, timed between repetitions to gauge machine speed.

    python3 perfbench/calibrate.py SPAWN_TIME

`SPAWN_TIME` is the CLOCK_MONOTONIC reading the parent took just before
starting this process.  It prints the seconds from then until the work is
done: start an interpreter, import numpy, parse CSV fields to floats and
run small matrix products, which is what a repetition does, in small.  It
does not import stockcast, so no change to the program can move its time.
"""

import sys
import time

import numpy as np

rng = np.random.default_rng(12345)
lines = [f"ACC,GRU,30,7,{i % 5},{i % 500 + 30},{i % 7 + 1},{x:.10e}"
         for i, x in enumerate(rng.random(30_000))]
total = 0.0
for line in lines:
    total += float(line.split(",")[7])
a = rng.standard_normal((32, 30))
w = 0.2 * rng.standard_normal((30, 30))
h = a
for _ in range(3000):
    h = np.tanh(h @ w) + a
print(time.monotonic() - float(sys.argv[1]))
