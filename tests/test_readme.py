"""The README's Library example runs as written."""

import json
import re
from pathlib import Path

import communityfish as cf

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    # criterion 7's planted corpus: two communities of six words, 20 documents
    spec = cf.PlantedCorpusSpec(
        communities=(tuple(f"alpha{i}" for i in range(6)),
                     tuple(f"beta{i}" for i in range(6))),
        polarity=(0.6, -0.6), n_docs=20, runs_per_doc=150, run_length=6,
        word_concentration=0.5, seed=0)
    planted, _ = cf.generate_corpus(spec)
    with open(tmp_path / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for d in planted.documents:
            fh.write(json.dumps({"id": d.id, "text": d.text}) + "\n")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(library_block(), str(README), "exec"), namespace)
    # each planted text is its words joined by spaces, none of them a stopword
    assert namespace["tokens"] == [tuple(d.text.split()) for d in planted.documents]
    assert namespace["partition"].num_communities == 2
    result = namespace["result"]
    assert result.matrix.shape == (20, 2)
    assert result.theta_se is not None and len(result.theta_se) == 20
