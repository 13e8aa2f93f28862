"""Faulted runs, pinned to the simulated bit.

Every fault site draws from its own seeded stream, so a plan replayed on
the same input injects the same faults at the same opportunities, and the
recovery ladders charge the same simulated seconds.  These pins hold the
whole outcome of faulted runs on the tiny network fixed — the per-site
injection counts, the simulated makespan as a hex float and a digest of
every :class:`~repro.mcl.hipmcl.HipMCLResult` field but the wall time —
so a change to *where* or *when* a fault is drawn, or to what a recovery
charges, shows here even when the clustering does not move.

Three configurations: the synchronous 2-D grid, and the static split-3-D
one with GPU kernels picked from 50 flops up and a budget that splits
some expansions into phases, each under ``FaultPlan.chaos(s)`` for s = 0…10
and one single-site plan per site; and a fault-free run on devices so
small that some shares do not fit, so genuine OOM fallbacks fire.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.machine import SUMMIT_LIKE
from repro.mcl.hipmcl import HipMCLConfig, hipmcl
from repro.resilience import FaultPlan

_SPEC = dataclasses.replace(SUMMIT_LIKE, gpu_min_flops=50.0)

CONFIGS = {
    "sync-2d": HipMCLConfig(nodes=4),
    "static-3d": HipMCLConfig(
        nodes=16, schedule="static", grid="3d", spec=_SPEC,
        memory_budget_bytes=2**16,
    ),
    "small-gpu": HipMCLConfig(
        nodes=4, spec=SUMMIT_LIKE.with_overrides(gpu_memory_bytes=32768),
    ),
}

_SITES = {
    "gpu_alloc": "gpu_alloc_rate",
    "gpu_launch": "gpu_launch_rate",
    "cpu_kernel": "cpu_kernel_rate",
    "merge_overrun": "merge_overrun_rate",
    "comm": "comm_failure_rate",
    "straggler": "straggler_rate",
}

PLANS = {
    **{f"chaos-{s}": FaultPlan.chaos(s) for s in range(11)},
    **{
        site: FaultPlan(seed=7, **{rate: 0.3})
        for site, rate in _SITES.items()
    },
    "none": None,
}


def _canonical(value):
    """``value`` as nested lists of plain values, floats as hex and
    mappings sorted, so its repr does not depend on insertion order."""
    if dataclasses.is_dataclass(value):
        return [
            (f.name, _canonical(getattr(value, f.name)))
            for f in dataclasses.fields(value)
        ]
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes().hex())
    if isinstance(value, dict):
        return sorted((str(k), _canonical(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.integer):
        return int(value)
    return value


def digest(result) -> str:
    """sha1 of every result field except ``wall_seconds``."""
    fields = [
        item for item in _canonical(result) if item[0] != "wall_seconds"
    ]
    return hashlib.sha1(repr(fields).encode()).hexdigest()


def run(matrix, config: str, plan: str):
    from repro.mcl.options import MclOptions

    res = hipmcl(
        matrix, MclOptions(select_number=25), CONFIGS[config],
        faults=PLANS[plan],
    )
    return res.faults_injected, res.elapsed_seconds.hex(), digest(res)


PINS = {
    ('sync-2d', 'chaos-0'): (
        {'comm': 116, 'cpu_kernel': 11, 'estimator_miss': 2, 'estimator_underestimate': 3, 'gpu_alloc': 28, 'gpu_launch': 6, 'merge': 16, 'straggler': 90},
        '0x1.b19c9bca7f65ap-5',
        '0716212756b0868035baba40444ed431fbaf9551',
    ),
    ('sync-2d', 'chaos-1'): (
        {'comm': 110, 'cpu_kernel': 12, 'estimator_miss': 2, 'estimator_underestimate': 3, 'gpu_alloc': 28, 'gpu_launch': 6, 'merge': 13, 'straggler': 79},
        '0x1.a804ac0c164e2p-5',
        '8839adab311924f4c633b064d258e57299db421b',
    ),
    ('sync-2d', 'chaos-2'): (
        {'comm': 114, 'cpu_kernel': 13, 'estimator_miss': 5, 'estimator_underestimate': 4, 'gpu_alloc': 28, 'gpu_launch': 5, 'merge': 12, 'straggler': 92},
        '0x1.e242d03097660p-5',
        'b2e33ab8c877cca5857345b262e7efaa9081b881',
    ),
    ('sync-2d', 'chaos-3'): (
        {'comm': 97, 'cpu_kernel': 9, 'estimator_miss': 2, 'estimator_underestimate': 3, 'gpu_alloc': 25, 'gpu_launch': 8, 'merge': 10, 'straggler': 80},
        '0x1.ac5c0b44034cdp-5',
        '29b8d1929ff53fbedb064c5e7ee91b5b4fcbc637',
    ),
    ('sync-2d', 'chaos-4'): (
        {'comm': 106, 'cpu_kernel': 16, 'estimator_miss': 2, 'estimator_underestimate': 1, 'gpu_alloc': 30, 'gpu_launch': 4, 'merge': 14, 'straggler': 79},
        '0x1.aad3f15f14cecp-5',
        'a3c3c6d51bb39c52221edf19426137b648a262a7',
    ),
    ('sync-2d', 'chaos-5'): (
        {'comm': 104, 'cpu_kernel': 15, 'estimator_miss': 4, 'estimator_underestimate': 6, 'gpu_alloc': 32, 'gpu_launch': 2, 'merge': 16, 'straggler': 86},
        '0x1.e22e87f622250p-5',
        '20495ee1ce17808bb592f9ddb6af12c2096206a1',
    ),
    ('sync-2d', 'chaos-6'): (
        {'comm': 111, 'cpu_kernel': 12, 'estimator_miss': 4, 'estimator_underestimate': 5, 'gpu_alloc': 30, 'gpu_launch': 4, 'merge': 11, 'straggler': 101},
        '0x1.f93931e08aaa4p-5',
        '9ee1549558982bff2dc4a2b2b3f511ae6102f734',
    ),
    ('sync-2d', 'chaos-7'): (
        {'comm': 119, 'cpu_kernel': 12, 'estimator_miss': 3, 'estimator_underestimate': 4, 'gpu_alloc': 29, 'gpu_launch': 5, 'merge': 14, 'straggler': 98},
        '0x1.e8a701135ee1ep-5',
        'ee402e448cdba956abebbf506074479cfe35662e',
    ),
    ('sync-2d', 'chaos-8'): (
        {'comm': 108, 'cpu_kernel': 14, 'estimator_miss': 3, 'estimator_underestimate': 6, 'gpu_alloc': 27, 'gpu_launch': 7, 'merge': 17, 'straggler': 90},
        '0x1.ca0aa593e1c14p-5',
        '7795b966cd90648c345bd3738b4770d1d320f515',
    ),
    ('sync-2d', 'chaos-9'): (
        {'comm': 110, 'cpu_kernel': 15, 'estimator_underestimate': 2, 'gpu_alloc': 27, 'gpu_launch': 6, 'merge': 15, 'straggler': 89},
        '0x1.c49c1f1d50edfp-5',
        'c76856f117a243e097ab5eab283fafff4475cbdb',
    ),
    ('sync-2d', 'chaos-10'): (
        {'comm': 104, 'cpu_kernel': 6, 'estimator_miss': 1, 'estimator_underestimate': 5, 'gpu_alloc': 27, 'gpu_launch': 7, 'merge': 16, 'straggler': 82},
        '0x1.a386094a9741cp-5',
        'e0a0b146c59d8acbbc7923d7e5b325dcbd285e82',
    ),
    ('sync-2d', 'gpu_alloc'): (
        {'gpu_alloc': 34},
        '0x1.e7929dda7b1f4p-9',
        '4adbcd6e1984f5721246c4267427ce11450cb0e0',
    ),
    ('sync-2d', 'gpu_launch'): (
        {'gpu_launch': 32},
        '0x1.e7929dda7b1f4p-9',
        '698de9b1407ea73fe2ecc3e8f7d77e57345ccb83',
    ),
    ('sync-2d', 'cpu_kernel'): (
        {'cpu_kernel': 9},
        '0x1.c375459aba967p-9',
        'f95bd214d35f82ceed540a5de4469a38a587ad19',
    ),
    ('sync-2d', 'merge_overrun'): (
        {'merge': 22},
        '0x1.5923b9419ae00p-9',
        '444cadac8b60fa0d4430effa0ce85925b2910afe',
    ),
    ('sync-2d', 'comm'): (
        {'comm': 154},
        '0x1.497388197920cp-6',
        'e91a014478f5578df0dc8e8d8d68978979c2de6a',
    ),
    ('sync-2d', 'straggler'): (
        {'straggler': 125},
        '0x1.9e9d8862e080ep-5',
        'b6de908d669a759ff0e0eec226eae1b73e4691ed',
    ),
    ('static-3d', 'chaos-0'): (
        {'comm': 316, 'cpu_kernel': 134, 'estimator_miss': 2, 'estimator_underestimate': 3, 'gpu_alloc': 566, 'gpu_launch': 120, 'merge': 145, 'straggler': 256},
        '0x1.cdad3db8a89dbp-5',
        '7c5a3316ece941cb4b5d2df89f2da61185105d2b',
    ),
    ('static-3d', 'chaos-1'): (
        {'comm': 311, 'cpu_kernel': 144, 'estimator_miss': 2, 'estimator_underestimate': 3, 'gpu_alloc': 629, 'gpu_launch': 120, 'merge': 145, 'straggler': 240},
        '0x1.dfb7f6f32233bp-5',
        'aa54d21e589de400287293adc58ea19ce369ad3f',
    ),
    ('static-3d', 'chaos-2'): (
        {'comm': 317, 'cpu_kernel': 138, 'estimator_miss': 5, 'estimator_underestimate': 4, 'gpu_alloc': 575, 'gpu_launch': 111, 'merge': 139, 'straggler': 266},
        '0x1.0d5f2a1c1a35cp-4',
        'aaed410f23e89068b3ac9f745e3a1800b6a0f717',
    ),
    ('static-3d', 'chaos-3'): (
        {'comm': 281, 'cpu_kernel': 143, 'estimator_miss': 2, 'estimator_underestimate': 3, 'gpu_alloc': 574, 'gpu_launch': 110, 'merge': 137, 'straggler': 237},
        '0x1.c50939b0c126dp-5',
        '20628ebbbc50c23b2f5fe37623c155c0e6c812ad',
    ),
    ('static-3d', 'chaos-4'): (
        {'comm': 320, 'cpu_kernel': 126, 'estimator_miss': 2, 'estimator_underestimate': 1, 'gpu_alloc': 569, 'gpu_launch': 114, 'merge': 132, 'straggler': 248},
        '0x1.df504fc2bf32ap-5',
        '877d90ab21c74319f4ee54fd2c91c34e57cbced6',
    ),
    ('static-3d', 'chaos-5'): (
        {'comm': 300, 'cpu_kernel': 139, 'estimator_miss': 4, 'estimator_underestimate': 6, 'gpu_alloc': 581, 'gpu_launch': 105, 'merge': 129, 'straggler': 269},
        '0x1.d775bb169a259p-5',
        'e6efbe0b0fbacf1eaf8a9c481cc1658ba3c4e4e7',
    ),
    ('static-3d', 'chaos-6'): (
        {'comm': 293, 'cpu_kernel': 109, 'estimator_miss': 4, 'estimator_underestimate': 5, 'gpu_alloc': 452, 'gpu_launch': 106, 'merge': 130, 'straggler': 243},
        '0x1.d0a53b87086d8p-5',
        '1d85c246d079a0dc0f77b01a8b10b7513f9aad7e',
    ),
    ('static-3d', 'chaos-7'): (
        {'comm': 311, 'cpu_kernel': 120, 'estimator_miss': 3, 'estimator_underestimate': 4, 'gpu_alloc': 573, 'gpu_launch': 113, 'merge': 142, 'straggler': 271},
        '0x1.f102cd586223ep-5',
        '7a5f2f607b94efe979276593a378c5f87be44866',
    ),
    ('static-3d', 'chaos-8'): (
        {'comm': 335, 'cpu_kernel': 146, 'estimator_miss': 3, 'estimator_underestimate': 6, 'gpu_alloc': 575, 'gpu_launch': 113, 'merge': 140, 'straggler': 271},
        '0x1.068b2619fdd49p-4',
        'bf2489bf3ff45e33f412d35d35b5323002f6520e',
    ),
    ('static-3d', 'chaos-9'): (
        {'comm': 311, 'cpu_kernel': 131, 'estimator_underestimate': 2, 'gpu_alloc': 570, 'gpu_launch': 116, 'merge': 132, 'straggler': 254},
        '0x1.e5517e4c5aca5p-5',
        '6297e8033be6d1dc03f7e3124c72af0b99c516a7',
    ),
    ('static-3d', 'chaos-10'): (
        {'comm': 311, 'cpu_kernel': 136, 'estimator_miss': 1, 'estimator_underestimate': 5, 'gpu_alloc': 553, 'gpu_launch': 130, 'merge': 162, 'straggler': 239},
        '0x1.cbcf087facdeap-5',
        'f5a5e36fd7aad2cfb5553842e6d72946c4ccd320',
    ),
    ('static-3d', 'gpu_alloc'): (
        {'gpu_alloc': 689},
        '0x1.6e4a55908b0bbp-9',
        '6c35b872e3240802448c90128eccdd101ce95be7',
    ),
    ('static-3d', 'gpu_launch'): (
        {'gpu_launch': 606},
        '0x1.6b686895edf0dp-9',
        '00f3bb607a2b24695000c28010eacb97db8c7ad9',
    ),
    ('static-3d', 'cpu_kernel'): (
        {},
        '0x1.4f830ef2f5c1fp-9',
        '095499eac8fdae11a5ca1dba46a4d81e550fbf07',
    ),
    ('static-3d', 'merge_overrun'): (
        {'merge': 207},
        '0x1.5a697af58109ep-9',
        '8500fb9c6754164f41e0143dbc1376df21ec4cd5',
    ),
    ('static-3d', 'comm'): (
        {'comm': 470},
        '0x1.856e1a20eefd1p-6',
        'ef8baccbf5fe7db3293cb51bc4c4b42d95701a16',
    ),
    ('static-3d', 'straggler'): (
        {'straggler': 366},
        '0x1.d1e37885f2d4ep-5',
        '0aa39d206b6b45a25136f22dcece21e7cc5ec710',
    ),
    ('small-gpu', 'none'): (
        {},
        '0x1.989899ae5a0a2p-9',
        '21811de5527723017b52e297b9d2fae44a4e91ad',
    ),
}


@pytest.mark.parametrize("config,plan", sorted(PINS))
def test_faulted_run_is_pinned(tiny_network, config, plan):
    faults, elapsed, sha = PINS[config, plan]
    got_faults, got_elapsed, got_sha = run(tiny_network.matrix, config, plan)
    assert got_faults == faults
    assert got_elapsed == elapsed
    assert got_sha == sha
