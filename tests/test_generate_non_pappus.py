"""The bundled `non-pappus` instance is exactly what its generator builds."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_generator_rebuilds_the_bundled_file_byte_for_byte():
    path = ROOT / "tools" / "generate_non_pappus.py"
    spec = importlib.util.spec_from_file_location("generate_non_pappus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    bundled = (ROOT / "src" / "omkit" / "data" / "non_pappus.om").read_bytes()
    assert module.non_pappus_text().encode() == bundled
