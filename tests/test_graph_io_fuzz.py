"""Fuzz: random short lines either load or fail with a located ``GraphError``."""

import os
import re
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.graph import Graph, GraphError, load_adjacency_list, load_edge_list

_TOKENS = st.sampled_from(["v", "e", "#", "x", "1.5", "-1", "0", "1", "2", "3", "5"])


@given(lines=st.lists(st.lists(_TOKENS, max_size=5), max_size=8))
@settings(max_examples=300, deadline=None)
def test_random_lines_load_or_name_their_line(lines):
    """Random short lines give a ``Graph`` or exactly a located ``GraphError``."""
    text = "".join(" ".join(tokens) + "\n" for tokens in lines)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "fuzz.txt")
        with open(path, "w") as handle:
            handle.write(text)
        for load in (load_edge_list, load_adjacency_list):
            try:
                graph = load(path)
            except GraphError as exc:
                where = re.match(rf"^{re.escape(path)}:(\d+): ", str(exc))
                assert where, str(exc)
                assert 1 <= int(where.group(1)) <= len(lines)
            else:
                assert isinstance(graph, Graph)
