"""knotiso: compactly-supported ambient isotopies of 3-space, countable
move schedules, and numerical convergence / injectivity probes."""

from .geometry import (  # noqa: F401
    Box,
    PLCurve,
    Point3,
    curve_is_simple,
    distance,
    read_curve,
    union_diameter,
    write_curve,
)
from .maps import (  # noqa: F401
    AffineMap,
    CompositeMap,
    ConeMap,
    IdentityMap,
    LocalMap,
    UnsquishMap,
    UnsquishParams,
    estimate_inverse_lipschitz,
    make_cone_map,
)
from .engine import (  # noqa: F401
    HypothesisReport,
    Isotopy,
    MoveSequence,
    ProbeReport,
    Schedule,
    check_hypotheses,
    eval_limit_isotopy,
    glue_schedule,
    infinite_motion_census,
    injectivity_probe,
    truncated_map,
    uniform_convergence_probe,
)
