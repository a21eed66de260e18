"""The default tolerance EPS and the range of eps every entry accepts.

It imports nothing, so the numeric modules and the numpy-free loader share
one threshold without either loading the other."""

EPS = 1e-9


def check_eps(eps: float) -> float:
    if not (1e-13 <= eps < 1e-3):
        raise ValueError(f"eps must lie in [1e-13, 1e-3), got {eps}")
    return eps
