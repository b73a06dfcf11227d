"""quantrange: quantile-range price forecasting, prediction-interval
evaluation, indicator-driven signals, and backtesting at desk scale.
The package imports none of its modules: import each name from the
module that defines it."""

__version__ = "0.1.0"
