"""Ground-truth-labeled signal synthesis: modulations, radar trains,
protocol bursts, jamming scenes, noise, and channel/device impairments."""

from .channel import apply_awgn, gen_noise
from .impairments import DeviceProfile, apply_device_profile
from .jamming import JAMMER_KINDS, Jammer, JammingScene, gen_jamming_scene
from .modulations import (
    ANALOG_KINDS,
    BITS_PER_SYMBOL,
    ModulationKind,
    constellation,
    cyclic_filter,
    modulate,
    rrc_taps,
)
from .protocol import (
    PROTOCOL_CLASSES,
    ProtocolBurstSpec,
    default_burst_spec,
    gen_protocol_burst,
)
from .radar import (
    Cw,
    Lfm,
    RadarPulseSpec,
    gen_radar_pulse_train,
    pulse_support_indices,
)
