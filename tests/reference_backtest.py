"""The paper's fixed-capital scenario: the account balance after one period
at a given return. The tests check the balances the paper prints with it;
nothing in the package imports this module.
"""


def scenario_test(initial_funds: float, period_return: float) -> float:
    """Account balance after one period at the given return."""
    if initial_funds <= 0:
        raise ValueError("initial funds must be positive")
    return initial_funds * (1.0 + period_return)
