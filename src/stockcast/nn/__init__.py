"""The layers of the forecasting models (`layers`), each a forward and a
backward over numpy arrays, with the chain runner that trains and
evaluates them; parameters (`params`), Adam (`optim`) and the
finite-difference gradient check (`gradcheck`)."""
