"""polycheck: probabilistic verification of polynomial products and modular
polynomial products over the integers and finite fields."""

from .rings import (
    ExtField,
    GF,
    IntegerRing,
    PrimeField,
    PrimeGenerationError,
    RngStream,
    ZZ,
    is_probable_prime,
    random_irreducible,
    random_monic,
    random_prime,
)
from .poly import (
    DensePoly,
    GapInfo,
    PolyFormatError,
    SparsePoly,
    evaluate,
    format_poly,
    gap_info,
    mod_reduce,
    mul_oracle,
    parse_poly,
    product_norm_bound,
    reduce_mod_binomial,
    reduced_norm_bound,
    x_pow_minus_one,
)
from .modeval import (
    eval_mod,
    eval_mod_binomial_dense,
    eval_mod_binomial_sparse,
    eval_mod_p_dense,
    eval_mod_p_sparse,
    eval_modprod_companion_sparse,
    leading_coefficients,
    project_modprod_companion,
    project_poly_companion,
    sparse_leading_coefficients,
)
from .modverify import (
    FieldTooSmallError,
    VerifyConfig,
    VerifyReport,
    verify_mod,
    verify_mod_companion,
    verify_mod_companion_sparse,
    verify_mod_ff,
    verify_mod_over_Z,
)
from .prodverify import (
    KaminskiParams,
    verify_int_product,
    verify_product,
    verify_product_kaminski,
    verify_product_kaminski_nomul,
    verify_product_kronecker,
    verify_sparse_product,
)

__version__ = "0.1.0"
