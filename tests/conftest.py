"""Shared fixtures: curated kern documents and a tiny prebuilt dataset."""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from polyscore import kern

# Hand-written kern sources covering 1-4 voices, ties, fermatas, dots,
# rests, continuations and multi-measure structure. Keys name the coverage.
FIXTURE_SOURCES: dict[str, str] = {
    "single_note": "**kern\n4c\n*-\n",
    "single_measure": "**kern\n4c\n=\n*-\n",
    "two_voice_quarters": "**kern\t**kern\n4c\t4e\n4d\t4f\n=\t=\n*-\t*-\n",
    "four_voice_row": "**kern\t**kern\t**kern\t**kern\n4c\t4c\t4c\t4c\n=\t=\t=\t=\n*-\t*-\t*-\t*-\n",
    "rests": "**kern\n4r\n8r\n2.r\n=\n*-\n",
    "dotted": "**kern\n4.c\n8d\n2.e\n=\n*-\n",
    "tie_pair": "**kern\n[2c\n2c]\n=\n*-\n",
    "tie_across_bar": "**kern\n2c\n[2d\n=\n2d]\n2e\n=\n*-\n",
    "fermata_note": "**kern\n2c;\n2r\n=\n*-\n",
    "fermata_rest": "**kern\n2c\n2r;\n=\n*-\n",
    "accidentals": "**kern\n4c#\n4d-\n4en\n4f\n=\n*-\n",
    "pickup_barline": "**kern\n8g\n=\n4c\n4d\n4e\n4f\n=\n*-\n",
    "octave_span": "**kern\n4CC\n4C\n4c\n4cc\n4ccc\n4cccc\n=\n*-\n",
    "continuations": "**kern\t**kern\n2c\t4e\n.\t4f\n4d\t4g\n4e\t4a\n=\t=\n*-\t*-\n",
    "three_voices": (
        "**kern\t**kern\t**kern\n2C\t4e\t4cc\n.\t4f\t4dd\n4D\t2g\t8ee\n"
        "4E\t.\t8ff\n=\t=\t=\n*-\t*-\t*-\n"
    ),
    "four_voice_mixed": (
        "**kern\t**kern\t**kern\t**kern\n2CC\t2G\t4e\t4cc\n.\t.\t4f\t4dd\n"
        "4C\t4A\t4g\t4ee\n=\t=\t=\t=\n*-\t*-\t*-\t*-\n"
    ),
    "two_measures": "**kern\n4c\n4d\n=\n4e\n4f\n=\n*-\n",
    "three_measures": "**kern\n2c\n2d\n=\n2e\n2f\n=\n2g\n2a\n=\n*-\n",
    "sixteenths": "**kern\n16c\n16d\n16e\n16f\n8g\n8a\n4b\n=\n*-\n",
    "thirty_seconds": "**kern\n32c\n32d\n32e\n32f\n8.g\n=\n*-\n",
    "low_and_high": "**kern\t**kern\n2BB-\t2ff#\n2AA\t2gg\n=\t=\n*-\t*-\n",
    "tie_and_fermata": "**kern\t**kern\n[4c\t4e\n4c]\t4f\n2d;\t2g;\n=\t=\n*-\t*-\n",
    "whole_notes": "**kern\n1c\n=\n1d\n=\n*-\n",
    "sixty_fourths": "**kern\n64c\n64d\n64e\n64f\n64g\n64a\n64b\n64cc\n4.d\n4e\n=\n*-\n",
    "final_no_barline": "**kern\n4c\n4d\n=\n4e\n4f\n*-\n",
}


def fixture_documents() -> dict[str, kern.KernDocument]:
    """Parsed versions of every fixture source."""
    return {name: kern.parse_kern(text) for name, text in FIXTURE_SOURCES.items()}


# what a mutation puts before, after or in place of a cell: tie, fermata and
# grace marks, chord notes, continuations, rests, records and odd tokens
_KERN_PIECES = (
    "[", "]", ";", "q", " 4g", " [4e", " 4c]", " 2BB-", ".", "4r", "[4c", "4c]", "8cq", "2.d",
    "*^", "*v", "*", "*-", "=", "!x", "4..c", "#", "-", "_", "\t4c", "",
)


@st.composite
def mutated_fixture_texts(draw):
    """A ``conftest.FIXTURE_SOURCES`` entry with one to three cells or lines edited."""
    lines = FIXTURE_SOURCES[draw(st.sampled_from(sorted(FIXTURE_SOURCES)))].split("\n")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["before", "after", "replace", "copy_line", "drop_line"]))
        if op == "copy_line":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif op == "drop_line" and len(lines) > 1:
            del lines[i]
        elif op != "drop_line":
            cells = lines[i].split("\t")
            j = draw(st.integers(0, len(cells) - 1))
            piece = draw(st.sampled_from(_KERN_PIECES))
            cells[j] = {"before": piece + cells[j], "after": cells[j] + piece, "replace": piece}[op]
            lines[i] = "\t".join(cells)
    return "\n".join(lines)


@pytest.fixture(scope="session")
def fixtures() -> dict[str, kern.KernDocument]:
    return fixture_documents()


@pytest.fixture(scope="session")
def tiny_dataset(tmp_path_factory):
    """A small built dataset + 2-epoch checkpoint shared by CLI tests."""
    from _toycorpus import make_corpus
    from polyscore import cli

    root = tmp_path_factory.mktemp("tiny")
    make_corpus(root / "corpus", n_scores=4, seed=7, two_voice_every=4)
    config_path = root / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "corpus_dir": "corpus",
                "out_dir": "data",
                "checkpoint_dir": "ckpt",
                "seed": 5,
                "train_fraction": 0.5,
                "validation_fraction": 0.25,
                "test_fraction": 0.25,
                "fragment_enabled": True,
                "min_measures": 2,
                "max_measures": 3,
                "overlap_train": False,
                "default_tempo": "presto",
                "tempo_jitter": True,
                "batch_size": 2,
                "epochs": 2,
                "model": {"hidden_units": 8, "dropout_p": 0.1, "frame_doubling": False},
            }
        )
    )
    config = cli.RunConfig.from_file(config_path)
    config.validate()
    assert cli.cmd_build(config) == 0
    manifest = Path(config.out_dir) / cli.MANIFEST_FILENAME
    assert cli.cmd_train(config, manifest) == 0
    return {
        "root": root,
        "config_path": config_path,
        "config": config,
        "manifest": manifest,
        "checkpoint_dir": Path(config.checkpoint_dir),
    }
