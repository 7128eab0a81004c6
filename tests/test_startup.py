"""What `import detcomp` loads, seen from a fresh interpreter.

The package imports at start-up only what start-up needs: hashlib (which
loads OpenSSL's libcrypto) is imported when a certificate is serialised,
importlib.resources when a schema is read, and no module uses typing. The
interpreter runs with -S, so that no site-packages .pth file loads any of
these first. The same process then prints the perm3 certificate, so the
first, lazy import of hashlib runs there too; in the test process pytest has
loaded hashlib already.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"

# none of these is loaded by `import detcomp.cli`
NOT_AT_STARTUP = ("hashlib", "_hashlib", "importlib.resources", "typing", "tempfile",
                  "pathlib", "zipfile")

SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import detcomp.cli
loaded = [name for name in sys.argv[2:] if name in sys.modules]
if loaded:
    sys.exit("loaded at import: " + ", ".join(loaded))
sys.exit(detcomp.cli.main(["certify", "--poly", "perm3", "--field", "Fp:32003",
                           "--format", "json", "--deterministic"]))
"""


def test_import_loads_only_what_startup_needs_and_certifies_from_a_fresh_interpreter():
    proc = subprocess.run([sys.executable, "-S", "-c", SCRIPT, str(ROOT / "src"), *NOT_AT_STARTUP],
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (DATA / "certify_perm3_Fp32003.json").read_bytes()
