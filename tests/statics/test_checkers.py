"""Per-rule fixture tests: one positive, negatives, and a pragma each."""

from repro.statics.checkers.codec import CodecExhaustivenessChecker
from repro.statics.checkers.constant_time import ConstantTimeChecker
from repro.statics.checkers.dead_public import DeadPublicChecker
from repro.statics.checkers.determinism import DeterminismChecker
from repro.statics.checkers.exact_fraction import ExactFractionChecker
from repro.statics.checkers.lock_discipline import LockDisciplineChecker
from repro.statics.checkers.obs_seam import ObsSeamChecker

from repro.statics.engine import scan_paths
from repro.statics.report import render_json
from tests.statics.helpers import lint, rules_hit, write_tree


# ----------------------------------------------------------------------
# constant-time
# ----------------------------------------------------------------------
def test_constant_time_flags_secret_named_equality():
    source = ("def verify(device_key, expected_mac, got):\n"
              "    return expected_mac == got\n")
    findings = lint(ConstantTimeChecker(), source)
    assert len(findings) == 1
    assert "expected_mac" in findings[0].message


def test_constant_time_flags_digest_membership():
    source = "bad = response.digest in known_digests\n"
    assert rules_hit(ConstantTimeChecker(), source) == ["constant-time"]


def test_constant_time_ignores_label_and_constant_comparisons():
    source = ("ok1 = mac_name == 'hmac-sha256'\n"
              "ok2 = digest_size == 32\n"
              "ok3 = algo in ('hmac-sha1', 'hmac-sha256')\n")
    assert lint(ConstantTimeChecker(), source) == []


def test_constant_time_bare_key_is_a_dict_key_not_material():
    source = ("ok = key in mapping\n"
              "bad = enrollment.key == presented\n")
    findings = lint(ConstantTimeChecker(), source)
    assert len(findings) == 1
    assert findings[0].line == 2


def test_constant_time_exempts_the_implementation_module():
    source = "equal = left_digest == right_digest\n"
    assert lint(ConstantTimeChecker(), source,
                relpath="src/repro/crypto/constant_time.py") == []


def test_constant_time_pragma():
    source = ("# statics: ok(constant-time)\n"
              "seen = row_digest in published_digests\n")
    assert lint(ConstantTimeChecker(), source) == []


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_determinism_flags_wall_clock_and_entropy():
    source = ("import os, time, random, uuid\n"
              "a = time.time()\n"
              "b = os.urandom(16)\n"
              "c = random.random()\n"
              "d = uuid.uuid4()\n")
    assert rules_hit(DeterminismChecker(), source) == ["determinism"] * 4


def test_determinism_flags_unseeded_random_construction():
    source = ("from random import Random\n"
              "rng = Random()\n")
    assert rules_hit(DeterminismChecker(), source) == ["determinism"]


def test_determinism_allows_seeded_rng_and_monotonic_clocks():
    source = ("import random, time\n"
              "rng = random.Random(42)\n"
              "t0 = time.perf_counter()\n"
              "t1 = time.monotonic()\n"
              "state = random.getstate()\n")
    assert lint(DeterminismChecker(), source) == []


def test_determinism_exempts_the_csprng_module():
    source = "import os\nseed = os.urandom(32)\n"
    assert lint(DeterminismChecker(), source,
                relpath="src/repro/crypto/csprng.py") == []


def test_determinism_pragma():
    source = ("import time\n"
              "stamp = time.time()  # statics: ok(determinism)\n")
    assert lint(DeterminismChecker(), source) == []


# ----------------------------------------------------------------------
# exact-fraction
# ----------------------------------------------------------------------
def test_exact_fraction_flags_float_threshold_wrapping():
    source = ("from fractions import Fraction\n"
              "limit = Fraction(max_mean_seconds)\n")
    findings = lint(ExactFractionChecker(), source)
    assert len(findings) == 1
    assert "Fraction(str(max_mean_seconds))" in findings[0].message


def test_exact_fraction_flags_float_into_sum_accumulator():
    source = "self._freshness_sum += 0.5\n"
    assert rules_hit(ExactFractionChecker(), source) == ["exact-fraction"]


def test_exact_fraction_flags_float_target_multiplication():
    source = "target = self.min_fraction * self.expected_devices\n"
    assert rules_hit(ExactFractionChecker(), source) == ["exact-fraction"]


def test_exact_fraction_allows_the_str_convention_and_exact_ops():
    source = ("from fractions import Fraction\n"
              "limit = Fraction(str(max_mean_seconds))\n"
              "ratio = Fraction(attested, expected)\n"
              "self._sum += Fraction(report_freshness)\n")
    assert lint(ExactFractionChecker(), source) == []


def test_exact_fraction_skips_test_files():
    source = "limit = Fraction(max_mean_seconds)\n"
    assert lint(ExactFractionChecker(), source,
                relpath="tests/obs/test_slo.py") == []


def test_exact_fraction_pragma():
    source = ("# statics: ok(exact-fraction)\n"
              "limit = Fraction(max_mean_seconds)\n")
    assert lint(ExactFractionChecker(), source) == []


# ----------------------------------------------------------------------
# lock-discipline
# ----------------------------------------------------------------------
def test_lock_discipline_flags_blocking_calls_under_a_lock():
    source = ("import time\n"
              "def convoy(self):\n"
              "    with self._lock:\n"
              "        time.sleep(0.1)\n")
    findings = lint(LockDisciplineChecker(), source)
    assert len(findings) == 1
    assert "time.sleep" in findings[0].message


def test_lock_discipline_allows_blocking_outside_the_lock():
    source = ("import time\n"
              "def polite(self):\n"
              "    with self._lock:\n"
              "        snapshot = dict(self._rows)\n"
              "    time.sleep(0.1)\n")
    assert lint(LockDisciplineChecker(), source) == []


def test_lock_discipline_flags_socket_and_join_under_lock():
    source = ("def bad(self):\n"
              "    with self._lock:\n"
              "        self.conn.send_bytes(b'x')\n"
              "        self.reader.join()\n")
    assert rules_hit(LockDisciplineChecker(), source) == \
        ["lock-discipline"] * 2


def test_lock_discipline_pragma():
    source = ("import time\n"
              "def tolerated(self):\n"
              "    with self._lock:\n"
              "        time.sleep(0.1)  # statics: ok(lock-discipline)\n")
    assert lint(LockDisciplineChecker(), source) == []


# ----------------------------------------------------------------------
# codec
# ----------------------------------------------------------------------
_CODEC_OK = (
    "OP_PING = 1\n"
    "OP_PONG = 2\n"
    "def send(conn, rid):\n"
    "    conn.send(pack(OP_PING, rid))\n"
    "    conn.send(pack(OP_PONG, rid))\n"
    "def dispatch(opcode):\n"
    "    if opcode == OP_PING:\n"
    "        return 'ping'\n"
    "    if opcode in (OP_PONG,):\n"
    "        return 'pong'\n")


def test_codec_round_trip_is_clean_including_tuple_dispatch():
    assert lint(CodecExhaustivenessChecker(), _CODEC_OK) == []


def test_codec_flags_encode_without_decode():
    source = ("OP_PING = 1\n"
              "OP_LOST = 2\n"
              "def send(conn, rid):\n"
              "    conn.send(pack(OP_PING, rid))\n"
              "    conn.send(pack(OP_LOST, rid))\n"
              "def dispatch(opcode):\n"
              "    return opcode == OP_PING\n")
    findings = lint(CodecExhaustivenessChecker(), source)
    assert len(findings) == 1
    assert "OP_LOST" in findings[0].message
    assert "never decoded" in findings[0].message


def test_codec_flags_decode_without_encode():
    source = ("OP_PING = 1\n"
              "OP_GHOST = 2\n"
              "def send(conn, rid):\n"
              "    conn.send(pack(OP_PING, rid))\n"
              "def dispatch(opcode):\n"
              "    return opcode in (OP_PING, OP_GHOST)\n")
    findings = lint(CodecExhaustivenessChecker(), source)
    assert len(findings) == 1
    assert "OP_GHOST" in findings[0].message
    assert "never encoded" in findings[0].message


def test_codec_single_opcode_module_is_out_of_scope():
    assert lint(CodecExhaustivenessChecker(), "OP_ONLY = 1\n") == []


def test_codec_flags_decode_paths_writing_through_views():
    source = ("def decode_task(frame):\n"
              "    view = memoryview(frame)\n"
              "    view[0] = 0\n"
              "    return view\n")
    findings = lint(CodecExhaustivenessChecker(), source)
    assert len(findings) == 1
    assert "read-only" in findings[0].message


def test_codec_decode_may_write_to_fresh_buffers():
    source = ("def decode_task(frame):\n"
              "    out = bytearray(4)\n"
              "    out[0] = frame[0]\n"
              "    return out\n")
    assert lint(CodecExhaustivenessChecker(), source) == []


def test_codec_pragma():
    source = ("def decode_task(frame):\n"
              "    frame[0] = 0  # statics: ok(codec)\n")
    assert lint(CodecExhaustivenessChecker(), source) == []


# ----------------------------------------------------------------------
# obs-seam
# ----------------------------------------------------------------------
def test_obs_seam_flags_primitive_imports_in_hot_paths():
    source = "from repro.obs.metrics import MetricsRegistry\n"
    findings = lint(ObsSeamChecker(), source,
                    relpath="src/repro/fleet/service.py")
    assert len(findings) == 1
    assert "Observability" in findings[0].message


def test_obs_seam_flags_primitive_construction_in_hot_paths():
    source = "registry = MetricsRegistry()\n"
    assert rules_hit(ObsSeamChecker(), source,
                     relpath="src/repro/core/verification.py") == \
        ["obs-seam"]


def test_obs_seam_allows_the_seam_itself_and_cold_paths():
    seam = "from repro.obs.service import Observability\n"
    assert lint(ObsSeamChecker(), seam,
                relpath="src/repro/fleet/service.py") == []
    primitives = "from repro.obs.metrics import MetricsRegistry\n"
    assert lint(ObsSeamChecker(), primitives,
                relpath="src/repro/experiments/fig6.py") == []
    assert lint(ObsSeamChecker(), primitives,
                relpath="src/repro/obs/export.py") == []


def test_obs_seam_pragma():
    source = ("# statics: ok(obs-seam)\n"
              "from repro.obs.metrics import Counter\n")
    assert lint(ObsSeamChecker(), source,
                relpath="src/repro/fleet/service.py") == []


# ----------------------------------------------------------------------
# dead-public
# ----------------------------------------------------------------------
def scan_dead_public(root, files):
    write_tree(root, files)
    return scan_paths([root], [DeadPublicChecker()], relative_to=root)


def dead_names(root, files):
    """Qualified names of the defs the rule reports dead."""
    return [finding.message.split()[2]
            for finding in scan_dead_public(root, files).findings]


LIBRARY = ("def used():\n    pass\n"
           "def spare():\n    pass\n"
           "class Box:\n"
           "    def open(self):\n        pass\n")


def test_dead_public_flags_a_def_only_tests_call(tmp_path):
    files = {"src/pkg/lib.py": LIBRARY,
             "src/pkg/app.py": "from pkg.lib import used, Box\n"
                               "used()\nBox()\n",
             "tests/test_lib.py": "from pkg.lib import spare, Box\n"
                                  "spare()\nBox().open()\n"}
    assert dead_names(tmp_path, files) == ["spare", "Box.open"]


def test_dead_public_counts_a_use_from_an_example(tmp_path):
    files = {"src/pkg/lib.py": "def helper():\n    pass\n",
             "examples/demo.py": "from pkg.lib import helper\nhelper()\n"}
    assert dead_names(tmp_path, files) == []


def test_dead_public_counts_getattr_and_patch_strings(tmp_path):
    files = {"src/pkg/lib.py": LIBRARY,
             "src/pkg/app.py": "import pkg.lib as lib\n"
                               "getattr(lib, 'used')()\n"
                               "patch(lib, 'spare', None)\n"
                               "lib.Box\n"
                               "getattr(lib.Box(), 'open')\n"}
    assert dead_names(tmp_path, files) == []


def test_dead_public_never_flags_private_or_dunder_defs(tmp_path):
    files = {"src/pkg/lib.py": "def _helper():\n    pass\n"
                               "class _Hidden:\n"
                               "    def _step(self):\n        pass\n"
                               "class Box:\n"
                               "    def __len__(self):\n        return 0\n"
                               "    def _peek(self):\n        pass\n",
             "src/pkg/app.py": "from pkg.lib import Box\nBox()\n"}
    assert dead_names(tmp_path, files) == []


def test_dead_public_exempts_framework_subclass_callbacks(tmp_path):
    files = {"src/pkg/net.py": "import abc\nimport asyncio\n"
                               "class Proto(asyncio.DatagramProtocol):\n"
                               "    def datagram_received(self, data, addr):\n"
                               "        pass\n"
                               "class Local:\n"
                               "    def hook(self):\n        pass\n"
                               "class Child(Local):\n"
                               "    def callback(self):\n        pass\n"
                               "class Rule(abc.ABC):\n"
                               "    def verdict(self):\n        pass\n",
             "src/pkg/app.py": "from pkg.net import Proto, Child, Rule\n"
                               "Proto()\nChild()\nRule\n"}
    # Local is defined in the tree, so Child's method is not exempt,
    # and an abstract-base marker calls nothing by name.
    assert dead_names(tmp_path, files) == ["Local.hook", "Child.callback",
                                           "Rule.verdict"]


def test_dead_public_reexport_and_import_alone_is_a_finding(tmp_path):
    files = {"src/pkg/lib.py": "def orphan():\n    pass\n",
             "src/pkg/__init__.py": "from pkg.lib import orphan\n"
                                    "__all__ = ['orphan']\n"}
    assert dead_names(tmp_path, files) == ["orphan"]


def test_dead_public_pragma(tmp_path):
    files = {"src/pkg/lib.py":
             "# statics: ok(dead-public) — test seam: a fake for tests\n"
             "def seam():\n    pass\n"
             "def spare():  # statics: ok(dead-public) — oracle\n"
             "    pass\n"}
    result = scan_dead_public(tmp_path, files)
    assert result.findings == []
    assert result.suppressed == 2


def test_dead_public_report_is_byte_identical_across_runs(tmp_path):
    files = {"src/pkg/a.py": LIBRARY,
             "src/pkg/b.py": "def lonely():\n    pass\n",
             "tests/test_a.py": "from pkg.a import used\nused()\n"}
    first = render_json(scan_dead_public(tmp_path / "one", files))
    second = render_json(scan_dead_public(tmp_path / "two", files))
    assert first == second
    assert b"Box.open" in first and b"lonely" in first
