"""The quantile models, one submodule each for the kind table and passes
(`network`), `layers`, `losses`, `training`, `forecast` and `checkpoint`."""
