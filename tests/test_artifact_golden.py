"""Golden test: the built kernels and bzImages are byte-stable.

Every figure is measured on artifacts this repo builds itself, so a
change to the kernel builder, the ELF writer, the bzImage packer, the
LZ4/LZO compressors or the ``random`` stream they draw from would move
every number at once.  The golden stores the SHA-256 of ``vmlinux`` and
``vmlinux.relocs`` for tiny at scale 1 (every variant) and aws at scale
16 (the two relocatable variants), and of the bzImage bytes for tiny/1
KASLR under the in-repo codecs (lz4, lzo, none) and aws/16 KASLR under
LZ4.  The stdlib codecs are left out: their bytes depend on the host's
zlib and liblzma.  An intentional change must regenerate the digests
(and say so in the commit message):

    PYTHONPATH=src python tests/test_artifact_golden.py \
        > tests/golden/artifacts.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.artifacts import get_bzimage, get_kernel
from repro.kernel import KernelVariant

GOLDEN = Path(__file__).parent / "golden" / "artifacts.json"

#: (config, scale, variants) whose vmlinux and relocs are pinned
KERNELS = (
    ("tiny", 1, (KernelVariant.NOKASLR, KernelVariant.KASLR, KernelVariant.FGKASLR)),
    ("aws", 16, (KernelVariant.KASLR, KernelVariant.FGKASLR)),
)
#: (config, scale, codecs) whose KASLR bzImage bytes are pinned
BZIMAGES = (
    ("tiny", 1, ("lz4", "lzo", "none")),
    ("aws", 16, ("lz4",)),
)


def _sha256(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def digests() -> dict[str, str | None]:
    """SHA-256 of each pinned artifact, keyed ``<config>/<scale>/<what>``."""
    out: dict[str, str | None] = {}
    for config, scale, variants in KERNELS:
        for variant in variants:
            kernel = get_kernel(config, variant, scale=scale)
            key = f"{config}/{scale}/{variant.value}"
            out[f"{key}/vmlinux"] = _sha256(kernel.vmlinux)
            out[f"{key}/relocs"] = _sha256(kernel.relocs)
    for config, scale, codecs in BZIMAGES:
        for codec in codecs:
            bz = get_bzimage(config, KernelVariant.KASLR, codec, scale=scale)
            out[f"{config}/{scale}/kaslr/bzImage-{codec}"] = _sha256(bz.data)
    return out


def test_artifacts_match_golden_digests():
    assert digests() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    sys.stdout.write(json.dumps(digests(), indent=2, sort_keys=True) + "\n")
