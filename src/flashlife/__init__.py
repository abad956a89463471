"""Flash read-channel modeling, capacity-constant dynamic voltage
allocation, and histogram-based wear estimation."""

__version__ = "0.1.0"

from .channel import (  # noqa: F401
    DeviceParams,
    NoiseSpec,
    WearState,
    default_device_params,
)
from .allocation import (  # noqa: F401
    LifetimeResult,
    PolicyConfig,
    find_alpha,
    simulate_lifetime,
)
from .infotheory import (  # noqa: F401
    MiEstimate,
    capacity_at,
    mutual_information,
    mutual_information_mc,
)
from .estimation import (  # noqa: F401
    Histogram,
    ReadThresholds,
    WearEstimate,
    fit_wear_state,
)
