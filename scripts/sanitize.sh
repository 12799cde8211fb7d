#!/usr/bin/env bash
# Memory-error and undefined-behaviour check of the compiled core.
#
#   ./scripts/sanitize.sh                  # the suites listed below
#   ./scripts/sanitize.sh tests/sim -q     # other pytest arguments instead
#
# Steps:
#   1. compile src/repro/sim/_cengine.c with AddressSanitizer and UBSan
#      (-O1 -g -fno-omit-frame-pointer -fsanitize=address,undefined)
#      into a temporary directory; src/repro/sim/_build is left alone;
#   2. load that build in place of the cached one through a throwaway
#      sitecustomize.py that stubs repro.sim.accel (the package itself
#      has no switch for this), and check that the engine gate and the
#      fold gate adopt it, and that a network builds its compiled send;
#   3. run the suites that drive the compiled core — the differential,
#      flood-decline, packet-path, floodpath, engine, throughput and
#      soak tests — with gcc's libasan and libubsan preloaded into the
#      interpreter and PYTHONMALLOC=malloc, so every Python object is a
#      malloc block ASan can see freed. Leaks are not checked (CPython
#      keeps allocations alive at exit on purpose); the first ASan or
#      UBSan report fails the run, and the reports are printed.
#
# Needs gcc with its sanitizer runtimes; the suites take about three minutes
# on two cores.

set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)

cc=${CC:-gcc}
asan=$("$cc" -print-file-name=libasan.so)
ubsan=$("$cc" -print-file-name=libubsan.so)
for lib in "$asan" "$ubsan"; do
    [ -e "$lib" ] || {
        echo "sanitize: $cc has no $(basename "$lib")" >&2
        exit 1
    }
done

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
core="$workdir/_cengine_sanitized.so"
include=$(python -c \
    "import sysconfig; print(sysconfig.get_paths()['include'])")

echo "== sanitized build =="
"$cc" -O1 -g -fno-omit-frame-pointer -fsanitize=address,undefined \
    -fPIC -shared -fno-strict-aliasing -I"$include" \
    src/repro/sim/_cengine.c -o "$core"

# repro.sim.engine adopts whatever repro.sim.accel.load_cengine returns;
# this stub returns the sanitized build.
cat > "$workdir/sitecustomize.py" <<PYEOF
import importlib.machinery
import importlib.util
import sys
import types

CORE = "$core"


def load_cengine():
    name = "repro.sim._cengine"
    loader = importlib.machinery.ExtensionFileLoader(name, CORE)
    spec = importlib.util.spec_from_file_location(name, CORE, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    sys.modules[name] = module
    return module


def build_cengine():
    return CORE


stub = types.ModuleType("repro.sim.accel")
stub.load_cengine = load_cengine
stub.build_cengine = build_cengine
sys.modules["repro.sim.accel"] = stub
PYEOF

export PYTHONPATH="$workdir:$root/src:$root${PYTHONPATH:+:$PYTHONPATH}"
export LD_PRELOAD="$asan $ubsan"
export PYTHONMALLOC=malloc
export ASAN_OPTIONS="detect_leaks=0:log_path=$workdir/asan"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
UBSAN_OPTIONS+=":log_path=$workdir/ubsan"
unset REPRO_ENGINE REPRO_FABRIC

# pytest captures a test's stderr, so the sanitizers write their reports
# to files: print any there are, and fail.
reports() {
    local clean=0
    for log in "$workdir"/asan.* "$workdir"/ubsan.*; do
        if [ -e "$log" ]; then
            cat "$log" >&2
            clean=1
        fi
    done
    return "$clean"
}

echo "== adoption =="
python - "$core" <<'PYEOF'
import sys

from repro.net import fabric
from repro.sim import engine
from tests.conftest import MiniNet

core = sys.modules["repro.sim._cengine"]
if core.__file__ != sys.argv[1]:
    sys.exit(f"sanitize: loaded {core.__file__}, not the sanitized build")
if engine.CEngine is not core.Engine:
    sys.exit("sanitize: the engine gate rejected the sanitized build")
if fabric.CFabricPath is not core.FabricPath:
    sys.exit("sanitize: the fold gate rejected the sanitized build")
if not isinstance(MiniNet().network.send.__self__, core.DeliveryPath):
    sys.exit("sanitize: a network did not build the compiled send")
print(f"sanitize: engine, fold and send adopted from {core.__file__}")
PYEOF
reports

echo "== suites under ASan + UBSan =="
if [ "$#" -eq 0 ]; then
    set -- tests/sim/test_differential.py tests/net/test_flood_declines.py \
        tests/net/test_packet_path.py tests/net/test_floodpath.py \
        tests/sim/test_engine.py tests/net/test_throughput_accounting.py \
        tests/sim/test_soak.py -q
fi
python -m pytest -p no:cacheprovider "$@" || { reports; exit 1; }
reports
echo "== sanitized suites passed =="
