"""The layers of the forecasting models (`layers`), each a forward and a
backward over numpy arrays, with the chain runner that evaluates them
and `mse_loss`, the training step and the one definition of the loss;
parameters (`params`), Adam (`optim`) and the finite-difference
gradient check (`gradcheck`)."""
