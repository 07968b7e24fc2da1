"""Non-local games compiled into multiple access channels.

The package builds two-sender channels whose noise is controlled by a
cooperative game: winning question/answer tuples pass the questions through
noiselessly, losing ones scramble the output.  It evaluates classical and
quantum strategies exactly, derives analytic sum-rate upper bounds from the
game's classical value, and traces numerically optimized inner bounds on the
capacity region.
"""

from .capacity import (
    InnerPoint,
    LsgRates,
    RegionBound,
    UpperBoundResult,
    binary_entropy,
    binary_rel_entropy,
    inner_bound,
    lsg_rates,
    solve_eps_star,
    sum_capacity_lower_bound,
    sum_rate_upper_bound,
    upper_bound_curve,
    write_region_dat,
    write_upper_bound_curve,
)
from .channel import (
    Encoding,
    Mac,
    MacFormatError,
    Pentagon,
    ProductInput,
    compose,
    entropy,
    load_mac_file,
    mac_from_game,
    pentagon,
    strategy_input,
    sum_rate_identity_check,
    write_mac_file,
)
from .games import (
    BUILTIN_GAMES,
    BruteForceResult,
    EnumerationBudgetError,
    Game,
    GameFormatError,
    ProductStrategy,
    PromisedGame,
    chsh_game,
    deterministic_strategy,
    hastad_game,
    linear_system_game,
    load_game_file,
    losing_probability,
    magic_square_game,
    omega_uniform_bruteforce,
    promise_free,
    winning_probability,
)
from .quantum import (
    Povm,
    PureState,
    QuantumStrategy,
    correlation,
    identity_post,
    magic_square_strategy,
    strategy_winning_probability,
    to_classical_channel,
)

__version__ = "0.1.0"
