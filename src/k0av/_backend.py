"""The quadratic-form kernels as `quadforms` calls them.

`_formcore` is the one implementation; this module only names its four
kernels, and code that rebinds `k0av._backend.*` reaches every call.
"""

from ._formcore import compose_triples, kronecker, reduce_triple, reduced_forms_disc


def backend_name() -> str:
    return "pure"
