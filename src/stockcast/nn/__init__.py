"""The layers of the forecasting models (`layers`), each a forward and a
backward over numpy arrays, with the chain runner that evaluates them
and `mse_loss`, the training step and the one definition of the loss;
parameters (`params`) and Adam (`optim`).  The finite-difference
gradient check of a chain is `stockcast.checks.grad_check`."""
