"""Sequence classification, the prefix trie, and canonical ordering."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tarpath.errors import InvalidInputError
from tarpath.pathspace import (
    EMPTY,
    ActionAlphabet,
    PrefixTrie,
    SeqClass,
    random_improper,
)

from .reference import fringe_states
from .strategies import alphabets, instances

AB = ActionAlphabet(tokens=("a", "b", "END"), terminal="END")


class TestActionAlphabet:
    def test_requires_terminal_membership(self):
        with pytest.raises(InvalidInputError):
            ActionAlphabet(tokens=("a", "b"), terminal="END")

    def test_requires_distinct_tokens(self):
        with pytest.raises(InvalidInputError):
            ActionAlphabet(tokens=("a", "a", "END"), terminal="END")

    def test_requires_two_tokens(self):
        with pytest.raises(InvalidInputError):
            ActionAlphabet(tokens=("END",), terminal="END")

    def test_rejects_empty_token(self):
        with pytest.raises(InvalidInputError):
            ActionAlphabet(tokens=("", "END"), terminal="END")

    def test_nonterminal(self):
        assert AB.nonterminal == ("a", "b")

    def test_index_follows_declaration_order(self):
        assert [AB.index(t) for t in ("a", "b", "END")] == [0, 1, 2]

    def test_index_unknown_token(self):
        with pytest.raises(InvalidInputError):
            AB.index("z")

    def test_require_seq_rejects_foreign_tokens(self):
        with pytest.raises(InvalidInputError):
            AB.require_seq(("a", "z"))

    def test_round_trip(self):
        assert ActionAlphabet.from_json(AB.to_json()) == AB


class TestClassify:
    def test_empty_is_incomplete(self):
        assert AB.classify(EMPTY) is SeqClass.PROPER_INCOMPLETE

    def test_complete(self):
        assert AB.classify(("a", "b", "END")) is SeqClass.COMPLETE

    def test_interior_terminal_is_improper(self):
        assert AB.classify(("a", "END", "b")) is SeqClass.IMPROPER
        assert AB.classify(("END", "END")) is SeqClass.IMPROPER

    def test_proper_covers_both_proper_classes(self):
        assert AB.is_proper(EMPTY)
        assert AB.is_proper(("a", "END"))
        assert not AB.is_proper(("END", "a"))

    @given(alphabets(), st.data())
    def test_proper_prefix_closure(self, alphabet, data):
        """Every prefix of a proper sequence is itself proper."""
        seq = tuple(
            data.draw(st.lists(st.sampled_from(alphabet.tokens), max_size=6))
        )
        if alphabet.is_proper(seq):
            for k in range(len(seq)):
                assert alphabet.is_proper(seq[:k])


class TestPrefixTrie:
    def test_build_rejects_improper(self):
        with pytest.raises(InvalidInputError):
            PrefixTrie.build(AB, [("a", "END", "b")])

    def test_build_rejects_incomplete(self):
        with pytest.raises(InvalidInputError):
            PrefixTrie.build(AB, [("a", "b")])

    def test_build_on_empty_family_is_root_only(self):
        trie = PrefixTrie.build(AB, [])
        assert trie.nodes == (EMPTY,)
        assert trie.rank.tolist() == [-1]

    def test_nodes_are_all_prefixes(self):
        trie = PrefixTrie.build(AB, [("a", "a", "END"), ("b", "END")])
        expected = {
            EMPTY,
            ("a",),
            ("b",),
            ("a", "a"),
            ("a", "a", "END"),
            ("b", "END"),
        }
        assert set(trie.nodes) == expected
        assert len(trie) == 6

    def test_canonical_node_order(self):
        trie = PrefixTrie.build(AB, [("b", "END"), ("a", "a", "END")])
        # shortlex: length first, then declaration-order rank
        assert trie.nodes == (
            EMPTY,
            ("a",),
            ("b",),
            ("a", "a"),
            ("b", "END"),
            ("a", "a", "END"),
        )

    @given(
        st.lists(st.lists(st.sampled_from(["a", "b"]), max_size=5), max_size=12),
        st.randoms(use_true_random=False),
    )
    def test_nodes_are_every_prefix_sorted_by_sort_key(self, bodies, rnd):
        paths = [tuple(b) + ("END",) for b in bodies]
        trie = PrefixTrie.build(AB, paths)
        prefixes = {p[:k] for p in paths for k in range(len(p) + 1)} | {EMPTY}
        assert trie.nodes == tuple(sorted(prefixes, key=AB.sort_key))
        for node in trie.nodes:
            row = trie.child[trie.index[node]].tolist()
            assert [t for t, c in zip(AB.tokens, row) if c >= 0] == [t for t in AB.tokens if node + (t,) in prefixes]
            assert trie.depths[trie.index[node]] == len(node)
        # any order or repetition of the paths builds the same trie
        again = paths + [rnd.choice(paths) for _ in range(rnd.randrange(4))] if paths else []
        rnd.shuffle(again)
        other = PrefixTrie.build(AB, again)
        assert other.nodes == trie.nodes
        for name in ("parent", "rank", "depths", "child"):
            assert np.array_equal(getattr(other, name), getattr(trie, name)), name

    def test_build_rejects_unknown_tokens(self):
        with pytest.raises(InvalidInputError, match="unknown token"):
            PrefixTrie.build(AB, [("a", "END"), ("z", "END")])

    @pytest.mark.parametrize(
        "paths, message",
        [
            ([("a", "END"), ("a",), ("z", "END")], "trie paths must be complete sequences, got ('a',)"),
            ([("a", "END"), ("z", "END"), ("a",)], "unknown token 'z' for alphabet ('a', 'b', 'END')"),
            ([("END", "a", "END")], "trie paths must be complete sequences, got ('END', 'a', 'END')"),
            ([()], "trie paths must be complete sequences, got ()"),
        ],
    )
    def test_build_names_the_first_bad_path(self, paths, message):
        with pytest.raises(InvalidInputError) as err:
            PrefixTrie.build(AB, paths)
        assert str(err.value) == message

    def test_children_in_declaration_order(self):
        trie = PrefixTrie.build(AB, [("b", "END"), ("a", "END"), ("a", "a", "END")])
        a = trie.index[("a",)]
        assert trie.child[trie.index[EMPTY]].tolist() == [a, trie.index[("b",)], -1]
        assert trie.child[a].tolist() == [trie.index[("a", "a")], -1, trie.index[("a", "END")]]

    def test_membership_and_depth(self):
        trie = PrefixTrie.build(AB, [("a", "a", "END")])
        assert ("a", "a") in trie
        assert ("a", "b") not in trie
        assert trie.depth == 3

    def test_depth_is_the_longest_node(self):
        trie = PrefixTrie.build(AB, [("a", "b", "a", "END"), ("b", "END"), ("a", "END")])
        assert trie.depth == max(len(n) for n in trie.nodes) == 4
        assert PrefixTrie.build(AB, []).depth == 0

    def test_fringe_states_one_step_off(self):
        trie = PrefixTrie.build(AB, [("a", "END")])
        fringe = fringe_states(trie)
        assert ("b",) in fringe
        assert ("a", "a") in fringe
        for s in fringe:
            assert s not in trie
            assert s[:-1] in trie

    def test_iter_edges_covers_every_nonroot_node(self):
        trie = PrefixTrie.build(AB, [("a", "a", "END"), ("b", "END")])
        children = {child for _, _, child in trie.iter_edges()}
        assert children == set(trie.nodes) - {EMPTY}

    @given(instances())
    def test_node_positions_index_every_array(self, inst):
        trie, tokens = inst.trie, inst.alphabet.tokens
        assert trie.parent[0] == -1 and trie.rank[0] == -1
        assert trie.child.shape == (len(trie), len(tokens))
        for i, node in enumerate(trie.nodes):
            assert trie.index[node] == i
            if i:
                assert trie.nodes[trie.parent[i]] == node[:-1]
                assert tokens[trie.rank[i]] == node[-1]
            row = trie.child[i].tolist()
            for t, c in zip(tokens, row):
                assert (c >= 0) == (node + (t,) in trie)
                if c >= 0:
                    assert trie.nodes[c] == node + (t,)
        # the edge into node i is edge i - 1
        assert [child for _, _, child in trie.iter_edges()] == list(trie.nodes[1:])

    @given(instances())
    def test_members_are_the_nodes_at_the_terminal_rank(self, inst):
        trie = inst.trie
        terminal = inst.alphabet.index(inst.alphabet.terminal)
        assert [trie.nodes[i] for i in np.flatnonzero(trie.rank == terminal)] == list(inst.psi)

    def test_arrays_are_read_only(self):
        trie = PrefixTrie.build(AB, [("a", "END")])
        for array in (trie.parent, trie.rank, trie.child):
            with pytest.raises(ValueError):
                array[0] = 0


class TestRandomImproper:
    @given(alphabets(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_always_improper(self, alphabet, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            seq = random_improper(alphabet, rng)
            assert alphabet.classify(seq) is SeqClass.IMPROPER
            assert len(seq) <= 8

    def test_deterministic_given_seed(self):
        a = [random_improper(AB, np.random.default_rng(7)) for _ in range(5)]
        b = [random_improper(AB, np.random.default_rng(7)) for _ in range(5)]
        assert a == b
