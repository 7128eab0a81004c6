"""The paper's claims, each replayed end to end in one test.

A claim whose two halves come from different computations is joined here, so
that the claimed value, not only each half, is asserted.
"""

from detcomp.expressions import abp_to_determinant, grenet_abp
from detcomp.fields import Fp
from detcomp.matmap import perm_polynomial, verify_expression
from detcomp.singularity import certify_lower_bound


def test_dc_perm3_is_seven():
    """dc(perm3) = 7: the lower bound dc >= codim Sing(perm3) + 1 = 7 from the
    Jacobian ideal over F_32003, and the upper bound from Grenet's 7x7
    expression, whose determinant equals perm3 exactly over Q.

    Not computed here: the theorem dc(f) >= codim Sing(f) + 1 itself, which
    the certificate cites once its hypotheses hold, and the transfer of the
    codim over F_32003 to characteristic 0 (ROADMAP item 2), which the lower
    bound over C needs.
    """
    cert = certify_lower_bound(perm_polynomial(3, Fp(32003)))
    assert (cert.codim, cert.bound) == (6, 7)
    mapping = abp_to_determinant(grenet_abp(3))
    assert mapping.size == 7
    assert verify_expression(mapping, perm_polynomial(3), mode="exact").ok
    assert cert.bound == mapping.size
