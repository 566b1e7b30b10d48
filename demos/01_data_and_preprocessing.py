"""From raw close-price CSVs to normalized train/test arrays.

Walks the reference corpus, loading each file and reporting the rows the
loader dropped, then shows the date-cutoff split (at the config's
default cutoff) and min-max normalization for one symbol.
"""

import os
import sys

from stockcast.config import ExperimentConfig
from stockcast.ingest import load_series
from stockcast.preprocess import fit_scaler, scale, split_by_date
from stockcast.synthetic import make_reference_corpus

DATA_DIR = sys.argv[1] if len(sys.argv) > 1 else "./data"

if not os.path.isfile(os.path.join(DATA_DIR, "ACC.csv")):
    print(f"no corpus at {DATA_DIR}, generating one")
    make_reference_corpus(DATA_DIR)

print(f"validating {DATA_DIR}")
for name in sorted(os.listdir(DATA_DIR)):
    if not name.endswith(".csv"):
        continue
    symbol = os.path.splitext(name)[0]
    ts, dropped = load_series(os.path.join(DATA_DIR, name), symbol)
    status = f"dropped {len(dropped)} row(s)" if dropped else "ok"
    print(f"  {symbol:12s} {len(ts):5d} points "
          f"{ts.dates[0]}..{ts.dates[-1]}  {status}")

symbol = "ACC"
ts, _ = load_series(os.path.join(DATA_DIR, f"{symbol}.csv"), symbol)
cutoff = ExperimentConfig(stocks=(symbol,)).cutoff
train, test = split_by_date(ts, cutoff)
print(f"\n{symbol}: split at {cutoff}")
print(f"  train {len(train)} points, test {len(test)} points")

scaler = fit_scaler(train.values)
train_n = scale(scaler, train.values)
test_n = scale(scaler, test.values)
print(f"  scaler fitted on train: min {scaler.min:.2f}, max {scaler.max:.2f}")
print(f"  normalized train range [{train_n.min():.4f}, {train_n.max():.4f}]")
print(f"  normalized test range  [{test_n.min():.4f}, {test_n.max():.4f}] "
      "(may leave [0, 1]: the scaler never sees the test side)")
