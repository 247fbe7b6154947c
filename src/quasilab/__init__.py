"""quasilab: measure the Lp growth of joint-quasimode extremizers.

Core surfaces: exact symbol/contact algebra (symbols), midpoint grids
(grids), sharp cutoffs, their
synthesis and bar transforms (quasimode, families), the flattening
conjugation (fio), wavelet diagnostics (wavelets), oscillatory-integral
checks (oscint), exponent formulas and slope fits (analysis), and the
config-driven experiment runner (experiments, cli).
"""

from .analysis import (EXPONENTS, INF_P, contact_delta, exponent,
                       fit_scaling, kink_p, sogge_delta, submanifold_delta,
                       transverse_delta)
from .errors import (BoxTooSmallError, ConfigError, DimensionMismatchError,
                     EmptySupportError, GridBudgetError, QuasilabError,
                     RefusalError, ResolutionError, SymbolParseError,
                     TailDominanceError)
from .grids import AxisSpec
from .quasimode import (BandConstraint, CutoffField, FrequencyCutoff,
                        build_cutoff, synthesize_on_axes,
                        verify_joint_quasimode)
from .symbols import (INFINITE, ContactReport, GraphForm, PolySymbol,
                      mixed_partials_check, contact_profile, curvature_check,
                      format_symbol, graph_factor, parse_symbol)

__version__ = "0.1.0"
