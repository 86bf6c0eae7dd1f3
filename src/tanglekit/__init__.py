"""Tools for deciding when 2-string tangles embed into the unknot, the
unlink or a split link: exact tangle-fraction arithmetic, planar diagrams,
quandle colorings, bracket invariants, an algebraic verdict engine, and a
catalog of essential tangles up to seven crossings."""

from .fraction import (
    Fraction,
    TwoBridgeLink,
    continued_fraction,
    continued_fraction_value,
    frac_add_integral,
    frac_mirror,
    frac_normalize,
    frac_rotate,
    numerator_two_bridge,
    parse_fraction,
    rational_closure_verdict,
)
from .diagram import (
    LinkDiagram,
    TangleDiagram,
    close_denominator,
    close_numerator,
    from_expression,
    from_rational,
    mirror,
    orient,
    parse_diagram,
    print_diagram,
    rotate,
    tangle_product,
    tangle_sum,
    validate,
)
from .quandle import color_solve_dihedral, coloring_fraction, determinant, monochromatic_report
from .bracket import jones, kauffman_bracket, linking_number, writhe
from .expr import (
    EmbedVerdict,
    evaluate,
    extend_sum_verdict,
    montesinos_verdict,
    parse_expr,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
