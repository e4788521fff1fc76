"""Helpers shared by the test files."""


def fundamental_discs(limit):
    """Negative fundamental discriminants d with |d| <= limit, by trial
    division alone, so the list does not depend on the package."""

    def squarefree(x):
        f = 2
        while f * f <= -x:
            if x % (f * f) == 0:
                return False
            f += 1
        return True

    out = []
    for d in range(-3, -limit - 1, -1):
        if d % 4 == 1 and squarefree(d):
            out.append(d)
        elif d % 4 == 0 and (d // 4) % 4 in (2, 3) and squarefree(d // 4):
            out.append(d)
    return out
