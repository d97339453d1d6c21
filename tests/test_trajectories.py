"""The stacked trajectory against the per-sample code it replaced.

Output of ``realize``, ``k33`` and ``trace`` must hash to the digests of the
per-sample writers; the fragment writers must equal the JSON encoder and
the dict and CSV writers their per-sample versions; the vectorized
generators and the detector must equal their scalar oracles in
``trajectories.py``; error messages name the same first offender; NaN never
gets through; a walk over the samples leaves nothing behind.
"""

import copy
import gc
import hashlib
import json
import math
import re
import weakref
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphflex import cli, formats
from sphflex.coloring import EdgeColoring, enumerate_nap, flexibility_certificate
from sphflex.continuation import TraceConfig, trace
from sphflex.errors import SphflexError
from sphflex.graphs import apex_double_triangle, build_graph, complete_bipartite, cycle_graph, k33
from sphflex.motions import (
    KIND_DIXON2,
    KIND_UNCLASSIFIED,
    Dixon1Params,
    Dixon2Params,
    MotionTrajectory,
    _cda_rows,
    _dixon1_samples,
    _dixon2_samples,
    _solve_dixon2_points,
    cda_motion,
    detect_k33_motion_kind,
    dixon1_motion,
    dixon2_motion,
    make_trajectory,
    polar_nap_motion,
)
from sphflex.spherical import (
    DEGENERATE_TOL,
    ORIENT_DET_TOL,
    LengthAssignment,
    SphericalRealization,
    degenerate_pair_masks,
    degenerate_pairs,
    essentially_distinct,
    random_rotation,
    random_unit_point,
)

from trajectories import (
    cda_rows_at,
    detect_by_samples,
    dixon1_rows,
    dixon2_samples_by_loop,
    dump_trajectory_by_samples,
    encoded,
    is_dixon1_sample,
    is_dixon2_sample,
    parsed,
    solve_dixon2_point,
    solve_dixon2_points_by_halvings,
    trajectory_from_dict_by_samples,
    trajectory_to_csv_by_samples,
    trajectory_to_dict_by_samples,
)
from commands import FILES, outcome, own_copy
from helpers import distinctness, realization_to_dict, restrict_realization
from reference import CDA, DIXON1, DIXON2, dixon1_seed

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None, database=None)
# K(3,7): vertices 10, 12 and 14 sort before 2 as JSON keys
K37 = complete_bipartite((1, 3, 5), (2, 4, 6, 8, 10, 12, 14))


# ---------------------------------------------------------------------------
# byte-identical CLI output
# ---------------------------------------------------------------------------

# sha256 of the output of the per-sample writers (and per-sample
# generators) for each case and format
DIGESTS = {
    "realize-k33/text": "9bba2fee9bd85a5d0dea2b1c5d763c5fdc13641757d1bfaf83eeb59452c9d370",
    "realize-k33/structured": "26691605e90b3fe6869d9b99d5c4f53c4e8ae967845b3b8913d0e8161c23903c",
    "realize-k33/tabular": "22bf318e2d3686d21fcbf6767619e05f67264858a333c98a5d64a8594cf0328b",
    "realize-k37/text": "b0e15b4b7d2d61bcd87d250196756c6a8eeca506aed1c50c65734dbe09015f17",
    "realize-k37/structured": "d5ae769f15b81f1ee47faa0ce58a84f5d74e21c503b49ddc95c63260fe2817fe",
    "realize-k37/tabular": "7568a2eb80bde49fb091c3881f5db3a904094c9223f46c1f7d94670c1aef5c4b",
    "realize-c12/text": "84c3667241c813c10375a689119d70a657f84bc40e22af00c927809e24c7ad27",
    "realize-c12/structured": "b0827df5a931d6ffbbd8c9bf7c75c339ffa652f65356461ab185e8635aca3c0a",
    "realize-c12/tabular": "084a203f8197adb372194babed7d3ecfcde6ef715bceadece7e4f432aaeee659",
    "k33-dixon1/text": "7edc1b51a78089d0351f16c7d3d95734e80c1ecc658c202017d3cf1e7254735e",
    "k33-dixon1/structured": "5cf91d2b97f921d876f3bdba18aa643a9b26088a35c6180b3c87fb87ebc239cd",
    "k33-dixon1/tabular": "5a7c6cec59b1723aed278db6e92407b09bdb7b2a0706a73b1dc912c92d3416a8",
    "k33-dixon1-slopes/text": "bcc3a119688cf9ba659a6edd0a6f8c8269ec66f99db00d84c43cfdb67bb6d1fd",
    "k33-dixon1-slopes/structured": "07d91286898d0d7ec99226b934983dae4227765ef66dee8e425dc4ee9f80755b",
    "k33-dixon1-slopes/tabular": "758ff276390c854471263bd8192cd9303bd497b397bee3aa53ad110b71f87c3e",
    "k33-dixon2/text": "e90660fccf7eb6637cf3551e47f2b5f69cef8fb03638ffbb4bf40e2e9cfc810e",
    "k33-dixon2/structured": "e76fbfe8aa87ed059a02c16625e08ffd04d04099197c8800fbed577d5d43ce85",
    "k33-dixon2/tabular": "605b0fefa8f662c3de06d8170b78f2741c9a42f1f296648a3a0aecfa5d914fa2",
    "k33-dixon2-k44/text": "e90660fccf7eb6637cf3551e47f2b5f69cef8fb03638ffbb4bf40e2e9cfc810e",
    "k33-dixon2-k44/structured": "110d0919caa0d1270eb2277274bae7512720f5964160c447b77d8d460a380d82",
    "k33-dixon2-k44/tabular": "ba4225d6904067c9ceaaea401b52e4968c4a1e6192ce91d18e7b31df37af9ad6",
    "k33-dixon2-wide/text": "dd59f814e83bede1a5d1894155a3f5d21527f9a5fdffb75774f3ed4476527a12",
    "k33-dixon2-wide/structured": "d7fdb8d95f665963d758f7b2bce565db3ecadc93a52a83bbd29357840e58a3bd",
    "k33-dixon2-wide/tabular": "1718f6a11f80211926a4615b8fa2096f9c2c750441b408ebc429bdb9c320af57",
    "k33-cda/text": "f696cf91124b0d28f6f7722e06a48e3c352aee5ce75911d30acd34d21e2234ed",
    "k33-cda/structured": "cc0316b76440812a9e722a5fb3ea90fdbb07f80204d53eb7e52969af7675b017",
    "k33-cda/tabular": "47916db0d6474345431032af61e0907b1198860e385d36f2766dd90e91864802",
    "k33-cda-signs/text": "76d051477567f1ba7eb92785e168736fe411f698d54171c3919a9b09329211ec",
    "k33-cda-signs/structured": "058d45b7ea29f5aa59c57ca8003c75cdead7a90b96a7c4e316d3249103a36eae",
    "k33-cda-signs/tabular": "938862b3b55fe999e1138399688e48727fc886be327456b2af67a1ae9a5077da",
    "trace-k33/text": "5d242a7aa2150d3e40056ac9a9d3240d0207032f9204406103f8ccd333d8f88a",
    "trace-k33/structured": "0d97b18b358c013b0425b623fa2761792585160e5ae0a449dc968771a9e09db1",
    "trace-k33/tabular": "ce44f096ad64c2c2ef4f4d02a58ea82f697c902edf85772f944e6c8669b14a84",
    "trace-k55/text": "45b8bf0e2d7b6b221a4093383d4711ec241a2d089d95b715feb6e5cbf531ba93",
    "trace-k55/structured": "4c250dea0af9c702bc6d836fb9ca951351bc734ea2e3d84ae36e065f148c6187",
    "trace-k55/tabular": "33155eff95d34faa4203a98abbb8adfc064df0fdc16d38553c37e0b0c2830c71",
}


def cli_cases(tmp, inputs):
    def write(name, payload):
        path = tmp / name
        path.write_text(json.dumps(payload))
        return str(path)

    cases = {
        "realize-k33": ["realize", "--corpus", "k33", "--samples", "40", "--seed", "7"],
        "realize-k37": ["realize", "--graph", write("k37.json", formats.graph_to_dict(K37)),
                        "--samples", "30", "--seed", "2"],
        "realize-c12": ["realize", "--graph",
                        write("c12.json", formats.graph_to_dict(cycle_graph(12))),
                        "--samples", "25", "--seed", "4"],
        "k33-dixon1": ["k33", "--kind", "dixon1", "--samples", "60"],
        "k33-dixon1-slopes": ["k33", "--kind", "dixon1", "--samples", "33",
                              "--c", "0.15,0.3,0.55", "--d", "0.2,0.45,0.6",
                              "--s-min", "0.9", "--s-max", "1.3"],
        "k33-dixon2": ["k33", "--kind", "dixon2", "--samples", "60"],
        "k33-dixon2-k44": ["k33", "--kind", "dixon2", "--samples", "60", "--full-k44"],
        "k33-dixon2-wide": ["k33", "--kind", "dixon2", "--samples", "41", "--p1-min", "0.3",
                            "--p1-max", "0.7", "--alpha", "0.25", "--beta", "-0.1",
                            "--gamma", "0.12"],
        "k33-cda": ["k33", "--kind", "cda", "--samples", "60"],
        "k33-cda-signs": ["k33", "--kind", "cda", "--samples", "30", "--y2-sign", "-1",
                          "--z5-sign", "-1", "--t-min", "8", "--t-max", "20"],
    }
    k55, k55_lengths, rho = dixon1_seed(5, 5)
    cases["trace-k33"] = [
        "trace",
        "--graph", inputs["K33"],
        "--lengths", inputs["DIXON1_LENGTHS"],
        "--seed-realization", inputs["DIXON1_SEED"],
        "--step", "0.05",
    ]
    cases["trace-k55"] = [
        "trace",
        "--graph", write("k55-g.json", formats.graph_to_dict(k55)),
        "--lengths", write("k55-l.json", formats.lengths_to_dict(k55_lengths)),
        "--seed-realization", write("k55-s.json", realization_to_dict(rho)),
        "--step", "0.05",
    ]
    return cases


def test_cli_output_hashes_to_per_sample_digests(tmp_path, inputs):
    got = {}
    for name, argv in cli_cases(tmp_path, inputs).items():
        for fmt in ("text", "structured", "tabular"):
            rc, text, _ = outcome([*argv, "--format", fmt])
            assert rc == 0, name
            got[f"{name}/{fmt}"] = hashlib.sha256(text.encode()).hexdigest()
            if fmt == "structured":
                # the parse-back writes the same text again
                assert encoded(parsed(text)) == text
                assert formats.dump_trajectory(parsed(text)) == text
    assert got == DIGESTS


# ---------------------------------------------------------------------------
# writers and parse-back
# ---------------------------------------------------------------------------


def example_trajectories():
    g = k33()
    coloring = flexibility_certificate(K37)
    d2 = dixon2_motion(DIXON2, np.linspace(0.45, 0.6, 40))
    d1 = dixon1_motion(DIXON1, [1.0, 1.1])
    return {
        "polar-k33": polar_nap_motion(g, next(iter(enumerate_nap(g))), np.linspace(0, 6, 50)),
        "polar-k37": polar_nap_motion(K37, coloring, np.linspace(0, 6, 30), seed=9),
        "polar-south": polar_nap_motion(
            K37, coloring, np.linspace(0, 6, 7),
            pole_assignment={v: -1 for v in K37.vertices if v % 4 == 1},
        ),
        # poles 1 (north) and 4 (south): antipodal, never coincident
        "polar-antipodal": polar_nap_motion(
            apex_double_triangle(),
            EdgeColoring.from_red_edges(apex_double_triangle(), [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]),
            np.linspace(0, 6, 9),
            pole_assignment={1: 1, 4: -1},
        ),
        "dixon1": dixon1_motion(DIXON1, np.linspace(0.95, 1.35, 80)),
        "dixon2-k44": d2,
        "dixon2-k33": d2.restrict(range(1, 7)),
        "cda": cda_motion(CDA, np.linspace(7.2, 30.0, 80)),
        "traced": trace(
            k33(), d1.lengths, d1.samples[0].realization, config=TraceConfig(step_size=0.1)
        ).trajectory,
    }


EXAMPLES = example_trajectories()


def assert_dict_equals_per_sample_oracle(traj, text):
    oracle = trajectory_to_dict_by_samples(traj)
    assert formats.trajectory_to_dict(traj) == oracle
    assert formats.dumps(oracle) == text


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_writers_equal_per_sample_writers(name):
    traj = EXAMPLES[name]
    text = formats.dump_trajectory(traj)
    assert text == encoded(traj) == dump_trajectory_by_samples(traj)
    assert_dict_equals_per_sample_oracle(traj, text)
    assert formats.trajectory_to_csv(traj) == trajectory_to_csv_by_samples(traj)
    again = parsed(text)
    oracle = trajectory_from_dict_by_samples(json.loads(text))
    assert np.array_equal(again.points, traj.points)
    assert np.array_equal(again.points, oracle.points)
    assert again.parameters.tolist() == traj.parameters.tolist()
    assert formats.dump_trajectory(again) == text


def signed_zeros_and_distinct():
    """A Dixon 1 stack with every other sample turned half about z, so that
    its zero coordinates are 0.0 in some samples and -0.0 in others, with
    parameters 0.0, -0.0 and repeats; and the same stack with each sample
    turned by its own random rotation, so that no coordinate repeats."""
    d1 = EXAMPLES["dixon1"]
    pts = d1.points.copy()
    pts[::2] *= [-1.0, -1.0, 1.0]
    params = d1.parameters.copy()
    params[:6] = [0.0, -0.0, 0.0, -0.0, 1.0, 1.0]
    signed = MotionTrajectory(d1.graph, d1.lengths, pts, params, "signed")
    rng = np.random.default_rng(8)
    turned = np.stack([p @ random_rotation(rng).matrix.T for p in d1.points])
    distinct = MotionTrajectory(d1.graph, d1.lengths, turned, d1.parameters, "distinct")
    return signed, distinct


def test_writers_equal_per_sample_writers_on_signed_zeros_and_distinct_values():
    signed, distinct = signed_zeros_and_distinct()
    zeros = np.signbit(signed.points[signed.points == 0.0])
    assert zeros.any() and not zeros.all()
    assert np.unique(distinct.points).size == distinct.points.size
    for traj in (signed, distinct):
        text = formats.dump_trajectory(traj)
        assert text == dump_trajectory_by_samples(traj) == encoded(traj)
        csv = formats.trajectory_to_csv(traj)
        assert csv == trajectory_to_csv_by_samples(traj)


def test_float_texts_take_one_repr_per_magnitude(monkeypatch):
    # the Dixon 1 stack followed by its half-turn about z, with parameters
    # -t, holds x/-x pairs and 0.0/-0.0; a Dixon 2 motion's half-turns flip
    # the signs of its coordinates
    d1 = EXAMPLES["dixon1"]
    mirrored = MotionTrajectory(
        d1.graph,
        d1.lengths,
        np.concatenate([d1.points, d1.points * [-1.0, -1.0, 1.0]]),
        np.concatenate([d1.parameters, -d1.parameters]),
        "mirrored",
    )
    calls = []

    def counted(x):
        calls.append(x)
        return repr(x)

    monkeypatch.setattr(formats, "repr", counted, raising=False)
    for traj in (mirrored, EXAMPLES["dixon2-k33"]):
        calls.clear()
        text = formats.dump_trajectory(traj)
        values = np.concatenate([traj.parameters, traj.points.ravel()])
        by_bits = np.unique(values.view(np.int64)).size
        assert len(calls) == np.unique(np.abs(values)).size < 0.8 * by_bits
        assert text == dump_trajectory_by_samples(traj)


@st.composite
def labelled_graphs(draw):
    """A random connected graph on up to 12 labels drawn from 0..40."""
    n = draw(st.integers(2, 12))
    labels = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True))
    tree = [(labels[draw(st.integers(0, v - 1))], labels[v]) for v in range(1, n)]
    extra = draw(st.lists(st.tuples(st.sampled_from(labels), st.sampled_from(labels)), max_size=8))
    edges = {(min(a, b), max(a, b)) for a, b in tree + extra if a != b}
    return build_graph(labels, edges)


@PROPERTY
@given(labelled_graphs(), st.integers(2, 30), st.integers(0, 9))
def test_polar_writers_equal_encoder_on_random_labels(g, samples, seed):
    coloring = flexibility_certificate(g)
    if coloring is None:
        return
    traj = polar_nap_motion(g, coloring, np.linspace(0.0, 6.0, samples), seed=seed)
    text = formats.dump_trajectory(traj)
    assert text == encoded(traj) == dump_trajectory_by_samples(traj)
    assert_dict_equals_per_sample_oracle(traj, text)
    assert formats.trajectory_to_csv(traj) == trajectory_to_csv_by_samples(traj)
    assert encoded(parsed(text)) == text


def test_walks_keep_no_per_sample_objects():
    traj = dixon1_motion(DIXON1, np.linspace(0.95, 1.35, 8))
    samples, rhos = list(traj.samples), traj.realizations()
    sample, rho = weakref.ref(samples[3]), weakref.ref(rhos[5])
    del samples, rhos
    gc.collect()
    assert sample() is None and rho() is None
    # what a trajectory keeps: its fields and the two per-stack caches
    assert set(vars(traj)) <= {
        "graph", "lengths", "points", "parameters", "kind",
        "_degenerate_masks", "_worst_edge_residuals",
    }


def test_samples_are_views_of_the_read_only_stack():
    traj = EXAMPLES["polar-south"]
    order = traj.graph.vertices
    assert traj.points.shape == (7, len(order), 3)
    assert not traj.points.flags.writeable
    with pytest.raises(ValueError):
        traj.points[0, 0, 0] = 2.0
    pairs = list(combinations(order, 2))
    masks = degenerate_pair_masks(traj.points)
    loops = []
    for k, s in enumerate(traj.samples):
        for i, v in enumerate(order):
            assert np.array_equal(s.realization.point(v), traj.points[k, i])
        loops.append(degenerate_pairs(s.realization))
        assert loops[-1] == tuple([pairs[p] for p in np.flatnonzero(mask[k])] for mask in masks)
    assert len(loops) == len(traj.parameters)
    injective, proper = traj.sample_flags()
    assert injective.tolist() == [not coincident for coincident, _ in loops]
    assert proper.tolist() == [not (coincident or antipodal) for coincident, antipodal in loops]
    assert not proper.any()
    injective, proper = EXAMPLES["polar-antipodal"].sample_flags()
    assert injective.all() and not proper.any()


# ---------------------------------------------------------------------------
# error messages
# ---------------------------------------------------------------------------


def k37_data():
    """``realize --samples 6 --seed 2`` on K(3,7), parsed."""
    angles = np.linspace(0.0, 2.0 * np.pi, 6, endpoint=False)
    traj = polar_nap_motion(K37, flexibility_certificate(K37), angles, seed=2)
    return json.loads(formats.dump_trajectory(traj))


def test_parse_names_first_off_sphere_vertex_in_key_order():
    data = k37_data()
    sample = data["samples"][2]["placement"]
    # vertex 2 is off too, but "12" comes first among the keys
    sample["2"] = [c * 1.001 for c in sample["2"]]
    sample["12"] = [c * 1.01 for c in sample["12"]]
    later = data["samples"][4]["placement"]
    later["1"] = [c * 1.1 for c in later["1"]]
    with pytest.raises(SphflexError, match=r"^vertex 12 placed off the sphere by 2\.010e-02$"):
        formats.trajectory_from_dict(data)
    with pytest.raises(SphflexError, match=r"^vertex 12 placed off the sphere by 2\.010e-02$"):
        trajectory_from_dict_by_samples(data)


def test_parse_error_messages():
    data = k37_data()
    moved = copy.deepcopy(data)
    p = moved["samples"][3]["placement"]["3"]
    c, s = np.cos(1e-3), np.sin(1e-3)
    moved["samples"][3]["placement"]["3"] = [c * p[0] - s * p[1], s * p[0] + c * p[1], p[2]]
    one = copy.deepcopy(data)
    one["samples"] = one["samples"][:1]
    same = copy.deepcopy(data)
    same["samples"] = [same["samples"][0]] * 3
    cases = [
        (moved, "sample at parameter 3.141592653589793 has edge residual 2.778e-04"),
        (one, "need at least two samples"),
        (same, "no two samples are essentially distinct"),
    ]
    for bad, message in cases:
        with pytest.raises(SphflexError) as err:
            formats.trajectory_from_dict(bad)
        assert str(err.value) == message


def test_parse_rejects_samples_placing_other_vertices():
    data = k37_data()
    extra = copy.deepcopy(data)
    extra["samples"][1]["placement"]["99"] = [1.0, 0.0, 0.0]
    missing = copy.deepcopy(data)
    del missing["samples"][1]["placement"]["10"]
    for bad in (extra, missing):
        with pytest.raises(SphflexError, match="the graph's vertices"):
            formats.trajectory_from_dict(bad)
    # keys in any order are put in the graph's order
    shuffled = copy.deepcopy(data)
    shuffled["samples"][1]["placement"] = dict(reversed(shuffled["samples"][1]["placement"].items()))
    assert np.array_equal(
        formats.trajectory_from_dict(shuffled).points, formats.trajectory_from_dict(data).points
    )



@pytest.mark.parametrize("key", ["١", "+1", " 1", "1.0"])
def test_parse_names_a_placement_key_that_is_no_label(key):
    # int() reads each of these keys as vertex 1
    data = k37_data()
    for sample in data["samples"]:
        sample["placement"] = {(key if v == "1" else v): p for v, p in sample["placement"].items()}
    with pytest.raises(SphflexError, match=f'^placement key "{re.escape(key)}" is not an integer label$'):
        formats.trajectory_from_dict(data)


def cda_data():
    """The structured export of the constant-diagonal-angle example, parsed;
    vertex 1 sits at [1.0, 0.0, 0.0] in every sample."""
    return json.loads(formats.dump_trajectory(EXAMPLES["cda"]))


DELETE = object()
POINT = 'sample 2: placement entry "1": {} is not [x, y, z]'
PARAMETER = 'sample 2: no number under "parameter"'


@pytest.mark.parametrize(
    "path, value, message",
    [
        pytest.param(("placement", "1"), [True, 0, 0], POINT, id="true-coordinate"),
        pytest.param(("placement", "1"), ["1", 0, 0], POINT, id="string-coordinate"),
        pytest.param(("placement", "1"), [10**400, 0, 0], POINT, id="400-digit-coordinate"),
        pytest.param(("placement", "1"), [1, 0], POINT, id="two-coordinates"),
        pytest.param(("placement", "1"), {"x": 1}, POINT, id="dict-point"),
        pytest.param(("placement",), [[1, 0, 0]], 'sample 2: no dict under "placement"', id="list-placement"),
        pytest.param(("placement",), DELETE, 'sample 2: no dict under "placement"', id="no-placement"),
        pytest.param(("parameter",), True, PARAMETER, id="true-parameter"),
        pytest.param(("parameter",), "1.05", PARAMETER, id="string-parameter"),
        pytest.param(("parameter",), None, PARAMETER, id="null-parameter"),
        pytest.param(("parameter",), [1], PARAMETER, id="list-parameter"),
        pytest.param(("parameter",), 10**400, PARAMETER, id="400-digit-parameter"),
        pytest.param(("parameter",), DELETE, PARAMETER, id="no-parameter"),
        pytest.param((), [8.0], PARAMETER, id="list-sample"),
    ],
)
def test_parse_names_the_first_sample_entry_that_is_no_number(path, value, message):
    # sample 6 breaks the same way, and sample 2 is named as the first
    data = cda_data()
    for k in (2, 6):
        *where, last = ("samples", k, *path)
        entry = data
        for key in where:
            entry = entry[key]
        if value is DELETE:
            del entry[last]
        else:
            entry[last] = copy.deepcopy(value)
    with pytest.raises(SphflexError) as err:
        formats.trajectory_from_dict(data)
    assert str(err.value) == message.replace("{}", repr(value))


TOP = 'expected {"graph": {...}, "lengths": [...], "samples": [...], "kind": "..."}: '


@pytest.mark.parametrize(
    "key, message",
    [
        ("graph", TOP + 'no dict under "graph"'),
        ("samples", TOP + 'no list under "samples"'),
        ("kind", TOP + 'no str under "kind"'),
        ("lengths", 'expected {"lengths": [[a, b, length], ...]}: no list under "lengths"'),
    ],
    ids=["graph", "samples", "kind", "lengths"],
)
def test_parse_names_a_missing_top_level_key(key, message):
    data = cda_data()
    del data[key]
    with pytest.raises(SphflexError) as err:
        formats.trajectory_from_dict(data)
    assert str(err.value) == message


def test_parse_reads_integer_entries_as_floats():
    data = cda_data()
    data["samples"][2]["placement"]["1"] = [1, 0, 0]
    data["samples"][0]["parameter"] = 7
    traj = formats.trajectory_from_dict(data)
    assert np.array_equal(traj.points, EXAMPLES["cda"].points)
    assert traj.parameters.tolist() == [7.0, *EXAMPLES["cda"].parameters.tolist()[1:]]


def test_make_trajectory_rejects_other_vertex_sets():
    traj = EXAMPLES["dixon1"]
    frames = list(zip(traj.parameters.tolist(), traj.realizations()))[:3]
    frames[1] = (frames[1][0], restrict_realization(frames[1][1], [1, 2, 3, 4, 5]))
    with pytest.raises(SphflexError, match="places vertices"):
        make_trajectory(traj.graph, traj.lengths, frames, traj.kind)


def test_stack_shape_is_checked():
    traj = EXAMPLES["dixon1"]
    with pytest.raises(SphflexError, match="do not fit"):
        MotionTrajectory(traj.graph, traj.lengths, traj.points[:, :5], traj.parameters, "x")
    with pytest.raises(SphflexError, match="do not fit"):
        MotionTrajectory(traj.graph, traj.lengths, traj.points, traj.parameters[1:], "x")


# ---------------------------------------------------------------------------
# non-finite input
# ---------------------------------------------------------------------------


def test_nan_point_is_off_the_sphere():
    with pytest.raises(SphflexError, match="vertex 2 placed off the sphere by nan"):
        SphericalRealization({1: [1.0, 0.0, 0.0], 2: [np.nan, 0.0, 0.0]})
    with pytest.raises(SphflexError, match="off the sphere by inf"):
        SphericalRealization({1: [np.inf, 0.0, 0.0]})
    traj = EXAMPLES["cda"]
    pts = traj.points.copy()
    pts[5, 3, 1] = np.nan
    with pytest.raises(SphflexError, match="vertex 4 placed off the sphere by nan"):
        MotionTrajectory(traj.graph, traj.lengths, pts, traj.parameters, traj.kind)


def test_huge_coordinate_is_off_the_sphere_without_a_warning():
    # 1e200 squared overflows to inf in a realization, a trajectory and a
    # parsed file alike
    with pytest.raises(SphflexError, match="^vertex 1 placed off the sphere by inf$"):
        SphericalRealization({1: [1e200, 0.0, 0.0]})
    traj = EXAMPLES["cda"]
    pts = traj.points.copy()
    pts[5, 3, 1] = 1e200
    with pytest.raises(SphflexError, match="^vertex 4 placed off the sphere by inf$"):
        MotionTrajectory(traj.graph, traj.lengths, pts, traj.parameters, traj.kind)
    data = k37_data()
    data["samples"][1]["placement"]["4"][0] = 1e200
    with pytest.raises(SphflexError, match="^vertex 4 placed off the sphere by inf$"):
        formats.trajectory_from_dict(data)


def test_nan_in_parsed_file_is_rejected():
    data = k37_data()
    data["samples"][1]["placement"]["4"][0] = float("nan")
    with pytest.raises(SphflexError, match="vertex 4 placed off the sphere by nan"):
        formats.trajectory_from_dict(data)
    data = k37_data()
    data["samples"][1]["parameter"] = float("nan")
    with pytest.raises(SphflexError, match="parameters must be finite"):
        formats.trajectory_from_dict(data)


def test_nan_residual_fails_the_residual_check():
    traj = EXAMPLES["dixon1"]
    lam = LengthAssignment({e: 0.25 for e in traj.graph.edges})
    object.__setattr__(lam, "lengths", {**lam.lengths, (1, 2): float("nan")})
    with pytest.raises(SphflexError, match="has edge residual nan"):
        MotionTrajectory(traj.graph, lam, traj.points, traj.parameters, traj.kind)


def test_cli_rejects_nan_and_inf_input(inputs, tmp_path, capsys):
    argv = ("trace", "--graph", "K33", "--lengths", "DIXON1_LENGTHS", "--seed-realization", "DIXON1_SEED")
    placement = FILES["DIXON1_SEED"]["placement"]
    for bad in (math.nan, math.inf):
        # json.dumps writes them as NaN and Infinity
        seed = {"placement": {**placement, "3": [bad, *placement["3"][1:]]}}
        assert cli.run(own_copy(argv, inputs, tmp_path, "--seed-realization", seed)) == 1
        assert "error: vertex 3 placed off the sphere by" in capsys.readouterr().err
    for flag in ("--s-min", "--s-max"):
        rc, out, err = outcome(["k33", "--kind", "dixon1", "--format", "structured", flag, "nan"])
        assert rc == 1 and out == ""
        assert "error: --s-min/--s-max must be finite" in err
        assert "off the sphere" not in err


# ---------------------------------------------------------------------------
# generators against their scalar oracles
# ---------------------------------------------------------------------------


@PROPERTY
@given(
    st.lists(st.floats(0.05, 0.95), min_size=3, max_size=3),
    st.lists(st.floats(0.05, 0.95), min_size=3, max_size=3),
    st.lists(st.floats(0.3, 3.0), min_size=2, max_size=20),
)
def test_dixon1_rows_equal_per_s_loop(c, d, s_values):
    params = Dixon1Params(dict(zip((1, 3, 5), c)), dict(zip((2, 4, 6), d)))
    try:
        traj = dixon1_motion(params, s_values)
    except SphflexError:
        return
    for s, got in zip(s_values, traj.points):
        assert np.array_equal(got, dixon1_rows(params, s))


def test_dixon1_rows_equal_per_s_loop_on_dense_grid():
    # sqrt(1 - x**2) through float64 squaring and through C pow differ in
    # the last bit for a few in 10^4 arguments near 1, so a dense grid of
    # latitudes up to 0.98 tells them apart
    rng = np.random.default_rng(5)
    for _ in range(20):
        c, d = rng.uniform(0.3, 0.6, 3), rng.uniform(0.3, 0.6, 3)
        params = Dixon1Params(dict(zip((1, 3, 5), c)), dict(zip((2, 4, 6), d)))
        s_values = rng.uniform(0.6, 1.0 / 0.6, 1000).tolist()
        traj = dixon1_motion(params, s_values)
        want = np.array([dixon1_rows(params, s) for s in s_values])
        assert np.array_equal(traj.points, want)


def test_dixon1_names_first_domain_violation():
    for s_values, message in (
        ([1.0, 0.0, 2.0], "s = 0 is outside the parametrization"),
        ([1.0, 1.2, 2.0, 0.0], "|c_5 * s| > 1 at s=2.0"),
        ([1.0, 0.5, 0.6], "|d_6 / s| > 1 at s=0.5"),
    ):
        with pytest.raises(SphflexError) as err:
            dixon1_motion(DIXON1, s_values)
        assert str(err.value) == message


# the ways a p1 fails in the Dixon 2 solvers
DIXON2_FAILURES = (
    r"^(p1=\S+ outside \(0,1\)"
    r"|no real companion point for p1=\S+ at these products"
    r"|solution touches a coordinate plane)$"
)


@PROPERTY
@given(
    st.tuples(st.floats(0.02, 0.4), st.floats(0.02, 0.4), st.floats(0.02, 0.4)),
    st.lists(st.sampled_from((1.0, -1.0)), min_size=3, max_size=3),
    st.lists(st.floats(0.01, 0.99), min_size=1, max_size=30),
)
def test_dixon2_solver_equals_scalar_bisection(mags, signs, p1_values):
    params = Dixon2Params(*(m * s for m, s in zip(mags, signs)))
    want, first_error = [], None
    for p1 in p1_values:
        try:
            want.append(solve_dixon2_point(params, p1))
        except SphflexError as exc:
            assert re.fullmatch(DIXON2_FAILURES, str(exc))
            first_error = exc
            break
    if first_error is not None:
        with pytest.raises(SphflexError) as err:
            _solve_dixon2_points(params, p1_values)
        assert str(err.value) == str(first_error)
        return
    p, q = _solve_dixon2_points(params, p1_values)
    assert np.array_equal(p, np.array([pq[0] for pq in want]))
    assert np.array_equal(q, np.array([pq[1] for pq in want]))


DIXON2_GRIDS = [
    # the benchmark's and acceptance tests' grids
    (DIXON2, np.linspace(0.45, 0.6, 500)),
    (Dixon2Params(-0.2, 0.15, -0.1), np.linspace(0.3, 0.7, 41)),
    # p1 near 0, where the brackets start far from the roots
    (Dixon2Params(1e-6, 0.15, 0.1), np.geomspace(2e-6, 1e-2, 25)),
    # p1 near 1, where the interval (0, 1 - p1^2) is tiny
    (Dixon2Params(0.5, 1e-5, 2e-5), 1.0 - np.geomspace(1e-6, 1e-2, 25)),
]


@pytest.mark.parametrize("params, p1_values", DIXON2_GRIDS)
def test_dixon2_solver_equals_all_halvings(params, p1_values):
    p1_list = [float(p1) for p1 in p1_values]
    p, q = _solve_dixon2_points(params, p1_list)
    want_p, want_q = solve_dixon2_points_by_halvings(params, p1_list)
    assert p.tobytes() == want_p.tobytes()
    assert q.tobytes() == want_q.tobytes()


@pytest.mark.parametrize(
    "params, p1_values",
    [
        (DIXON2, [0.5, 1.5, 0.0]),
        (DIXON2, [0.5, 0.0, 1.5]),
        (DIXON2, [0.5, -1.0]),
        (Dixon2Params(0.9, 0.9, 0.9), [0.95, 0.2]),
        (DIXON2, [0.45, 1e-3]),
        # a NaN row never settles, so the halvings run to the bound
        (DIXON2, [0.45, float("nan"), 0.5]),
    ],
)
def test_dixon2_solver_errors_equal_all_halvings(params, p1_values):
    with pytest.raises(SphflexError, match=DIXON2_FAILURES) as want:
        solve_dixon2_points_by_halvings(params, p1_values)
    with pytest.raises(SphflexError) as got:
        _solve_dixon2_points(params, p1_values)
    assert str(got.value) == str(want.value)


def test_dixon2_errors_name_first_failing_p1():
    params = DIXON2
    with pytest.raises(SphflexError, match=r"^p1=1.5 outside \(0,1\)$"):
        dixon2_motion(params, [0.5, 1.5, 0.0])
    with pytest.raises(SphflexError, match=r"^p1=0.0 outside \(0,1\)$"):
        dixon2_motion(params, [0.5, 0.0, 1.5])
    with pytest.raises(SphflexError, match="no real companion point for p1=0.95 "):
        dixon2_motion(Dixon2Params(0.9, 0.9, 0.9), [0.95, 0.2])
    with pytest.raises(SphflexError, match="no parameter values supplied"):
        dixon2_motion(params, [])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_dixon2_rejects_non_finite_p1(bad):
    params = DIXON2
    with pytest.raises(SphflexError, match=rf"^p1={bad} outside \(0,1\)$"):
        dixon2_motion(params, [0.45, bad, 0.5])
    with pytest.raises(SphflexError, match=rf"^p1={bad} outside \(0,1\)$"):
        _solve_dixon2_points(params, [bad])


def test_cli_dixon2_rejects_nan_p1():
    for flag in ("--p1-min", "--p1-max"):
        argv = ["k33", "--kind", "dixon2", "--format", "structured", flag, "nan"]
        rc, out, err = outcome(argv)
        assert rc == 1 and out == ""
        assert "error: --p1-min/--p1-max must be finite" in err
        assert "off the sphere" not in err


def cda_test_values() -> list[float]:
    """t on both sides of every pole and radicand zero, at scales up to
    where the radicands overflow, plus the named bad values."""
    rng = np.random.default_rng(21)
    near = [-7.0, -1.0, -1.0 / 7.0, 0.0, 1.0, 7.0]
    values = [
        *rng.uniform(-40.0, 40.0, 1000),
        *(rng.choice(near, 300) + rng.normal(0.0, 1e-3, 300)),
        *(rng.choice((-1.0, 1.0), 300) * 10.0 ** rng.uniform(-8.0, 80.0, 300)),
        -1.0, 0.0, -0.0, 1.0, math.nan, math.inf, -math.inf,
        1e100,  # t**4 overflows
        -2.0,  # negative y2 radicand
        2.0,  # negative z5 radicand
        1e7,  # rounds off the sphere
    ]
    return [float(t) for t in values]


# the ways a t fails in the constant-diagonal-angle closed form, in the
# order ``_cda_rows`` tests them
CDA_FAILURES = (
    r"t=\S+ is not finite",
    r"t=\S+ is a pole of the parametrization",
    r"y2 radicand \S+ < 0 at t=\S+",
    r"the radicands overflow at t=\S+",
    r"z5 radicand \S+ < 0 at t=\S+",
    r"z5 vanishes at t=\S+",
    r"the closed form leaves the sphere by \S+ at t=\S+",
)


def scalar_outcome(t, y2_sign, z5_sign):
    try:
        return cda_rows_at(t, y2_sign, z5_sign), None
    except SphflexError as exc:
        return None, exc


@pytest.mark.parametrize("y2_sign, z5_sign", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_cda_kernel_equals_scalar_rows(y2_sign, z5_sign):
    ts = cda_test_values()
    rows, valid, error = _cda_rows(ts, y2_sign, z5_sign)
    outcomes = [scalar_outcome(t, y2_sign, z5_sign) for t in ts]
    assert valid.tolist() == [want is not None for want, _ in outcomes]
    assert valid.sum() > 500
    # every failure matches one kind, and every kind occurs
    kinds = {
        tuple(kind for kind in CDA_FAILURES if re.fullmatch(kind, str(exc)))
        for _, exc in outcomes
        if exc is not None
    }
    assert sorted(kinds) == sorted((kind,) for kind in CDA_FAILURES)
    for t, got, (want, exc) in zip(ts, rows, outcomes):
        one_rows, one_valid, one_error = _cda_rows([t], y2_sign, z5_sign)
        if want is None:
            assert not one_valid[0]
            assert (type(one_error), str(one_error)) == (type(exc), str(exc))
        else:
            # bit for bit, so -0.0 and 0.0 count as different
            assert got.tobytes() == want.tobytes() == one_rows[0].tobytes()
            assert one_error is None
    # the stack reports the first bad t as the scalar form raises it
    first = next(exc for _, exc in outcomes if exc is not None)
    assert (type(error), str(error)) == (type(first), str(first))


def test_cda_kernel_equals_scalar_rows_on_dense_grid():
    # C pow rounds t**2 apart from t * t for about 1 t in 1000, and most
    # such differences round away further on, so only a dense grid tells
    # the two apart in the rows
    ts = np.random.default_rng(22).uniform(7.2, 30.0, 20000).tolist()
    rows, valid, error = _cda_rows(ts, 1, 1)
    assert valid.all() and error is None
    assert rows.tobytes() == np.array([cda_rows_at(t, 1, 1) for t in ts]).tobytes()


def test_cda_kernel_raises_at_the_first_bad_t():
    for ts, message in (
        ([8.0, 9.0, 2.0, math.nan], "z5 radicand -5.850e+02 < 0 at t=2.0"),
        ([8.0, -2.0, 2.0], "y2 radicand -6.500e+01 < 0 at t=-2.0"),
        ([8.0, math.nan, 2.0], "t=nan is not finite"),
        ([8.0, 1e100, 1.0], "the radicands overflow at t=1e+100"),
        ([8.0, -1.0, 1e7], "t=-1.0 is a pole of the parametrization"),
    ):
        with pytest.raises(SphflexError) as got:
            cda_motion(CDA, ts)
        assert str(got.value) == message
        with pytest.raises(SphflexError, match=f"^{re.escape(message)}$"):
            for t in ts:
                cda_rows_at(t, 1, 1)


# ---------------------------------------------------------------------------
# detector
# ---------------------------------------------------------------------------


def k33_examples():
    rng = np.random.default_rng(12)
    out = [EXAMPLES[k] for k in ("dixon1", "dixon2-k33", "cda", "traced")]
    for n in (50, 275, 500):
        c, d = np.sort(rng.uniform(0.15, 0.6, 3)), np.sort(rng.uniform(0.15, 0.6, 3))
        params = Dixon1Params(dict(zip((1, 3, 5), c)), dict(zip((2, 4, 6), d)))
        out.append(dixon1_motion(params, np.linspace(1.0, 1.25, n)))
        out.append(dixon2_motion(DIXON2, np.linspace(0.45, 0.6, n)).restrict(range(1, 7)))
        out.append(cda_motion(CDA, np.linspace(7.2, 30.0, n)))
    # a rotated Dixon 2 motion keeps its half-turn axes; a rotated
    # Dixon 1 motion keeps its orthogonal circles
    rot = random_rotation(rng)
    for traj in out[:2]:
        pts = traj.points @ rot.matrix.T
        out.append(MotionTrajectory(traj.graph, traj.lengths, pts, traj.parameters, "rotated"))
    return out


@pytest.mark.parametrize("traj", k33_examples())
def test_detector_equals_per_sample_oracle(monkeypatch, traj):
    rhos = traj.realizations()
    for tol in (1e-8, 1e-4):
        monkeypatch.setattr("sphflex.motions.DETECT_TOL", tol)
        assert _dixon1_samples(traj.points, tol).tolist() == [is_dixon1_sample(r, tol) for r in rhos]
        d2 = _dixon2_samples(traj.points, tol).tolist()
        assert d2 == dixon2_samples_by_loop(traj.points, tol).tolist()
        assert d2 == [is_dixon2_sample(r, tol) for r in rhos]
        assert detect_k33_motion_kind(traj) == detect_by_samples(traj, tol)


def nudged(traj: MotionTrajectory, k: int) -> MotionTrajectory:
    """``traj`` with sample k moved by about 1e-10, which breaks a Dixon
    signature at a detector tolerance of 1e-11 but keeps the lengths
    within COMPAT_TOL."""
    pts = traj.points.copy()
    pts[k] += np.random.default_rng(3).normal(size=pts[k].shape) * 1e-10
    pts[k] /= np.linalg.norm(pts[k], axis=-1, keepdims=True)
    return MotionTrajectory(traj.graph, traj.lengths, pts, traj.parameters, "nudged")


@pytest.mark.parametrize("name", ["dixon1", "dixon2-k33"])
@pytest.mark.parametrize("k", [0, 1, -1])
def test_detector_equals_oracles_where_a_signature_breaks(monkeypatch, name, k):
    # sample 0 broken: the first-sample test decides; a later sample
    # broken: only the whole-stack test sees it
    traj = nudged(EXAMPLES[name], k)
    for tol, want in ((1e-11, KIND_UNCLASSIFIED), (1e-8, EXAMPLES[name].kind)):
        monkeypatch.setattr("sphflex.motions.DETECT_TOL", tol)
        assert detect_k33_motion_kind(traj) == detect_by_samples(traj, tol) == want
        found = _dixon2_samples(traj.points, tol)
        assert found.tolist() == dixon2_samples_by_loop(traj.points, tol).tolist()


def test_detector_per_sample_verdicts_differ_along_a_mixed_stack():
    # samples of a Dixon 2 motion followed by samples of a CDA motion: the
    # per-sample tests must keep their order and disagree where the
    # motions do
    d2 = dixon2_motion(DIXON2, np.linspace(0.45, 0.6, 9)).restrict(range(1, 7))
    cda = cda_motion(CDA, np.linspace(8.0, 20.0, 7))
    pts = np.concatenate([d2.points, cda.points])
    got = _dixon2_samples(pts, 1e-8)
    want = [is_dixon2_sample(r, 1e-8) for r in d2.realizations() + cda.realizations()]
    assert got.tolist() == want
    assert got[:9].all() and not got[9:].any()


def two_shapes() -> MotionTrajectory:
    """Samples A, B and B turned by a rotation: every sample after the
    first is distinct from A, but only two shapes occur."""
    d1 = dixon1_motion(DIXON1, [1.0, 1.2])
    rot = random_rotation(np.random.default_rng(6))
    pts = np.stack([d1.points[0], d1.points[1], d1.points[1] @ rot.matrix.T])
    return MotionTrajectory(d1.graph, d1.lengths, pts, [0.0, 1.0, 2.0], "x")


def test_detector_errors_match_oracle():
    g = k33()
    polar = polar_nap_motion(g, next(iter(enumerate_nap(g))), np.linspace(0, 6, 12))
    for traj, failure in (
        (polar, "^sample at 0.0 has coincident or antipodal vertices$"),
        (dixon1_motion(DIXON1, [1.0, 1.001]), "^need three essentially distinct samples$"),
        (two_shapes(), "^need three essentially distinct samples$"),
    ):
        with pytest.raises(SphflexError, match=failure) as want:
            detect_by_samples(traj)
        with pytest.raises(SphflexError) as got:
            detect_k33_motion_kind(traj)
        assert str(got.value) == str(want.value)


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.sampled_from((1e-8, 0.05, 0.2, 0.4)))
def test_detector_tests_equal_oracle_on_random_stacks(seed, tol):
    # odd vertices at random, even vertices at their antipodes moved by
    # noise near tol, so that shared axes, orthogonality and coplanarity
    # each pass in some samples and fail in others
    rng = np.random.default_rng(seed)
    odd = rng.normal(size=(60, 3, 3))
    odd[:20, :, 2] *= rng.uniform(0.0, 3 * tol, (20, 1))  # nearly coplanar
    even = -odd + rng.normal(size=odd.shape) * rng.uniform(0.0, 3 * tol, (60, 1, 1))
    pts = np.empty((60, 6, 3))
    pts[:, 0::2], pts[:, 1::2] = odd, even
    pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
    rhos = [SphericalRealization(dict(zip(range(1, 7), p))) for p in pts]
    assert _dixon1_samples(pts, tol).tolist() == [is_dixon1_sample(r, tol) for r in rhos]
    d2 = _dixon2_samples(pts, tol).tolist()
    assert d2 == dixon2_samples_by_loop(pts, tol).tolist()
    assert d2 == [is_dixon2_sample(r, tol) for r in rhos]


def test_degenerate_pair_masks_at_the_exact_thresholds():
    tol = DEGENERATE_TOL
    pts = {1: np.array([1.0, 0.0, 0.0])}
    for v, d in ((2, 1.0 - tol), (3, -1.0 + tol), (4, 0.3)):
        pts[v] = np.array([d, np.sqrt(1.0 - d * d), 0.0])
    rho = SphericalRealization(pts)
    coincident, antipodal = degenerate_pair_masks(np.stack([pts[v] for v in range(1, 5)])[None])
    pairs = list(combinations(range(1, 5), 2))
    got = ([pairs[k] for k in np.flatnonzero(coincident[0])], [pairs[k] for k in np.flatnonzero(antipodal[0])])
    assert got == degenerate_pairs(rho) == ([(1, 2)], [(1, 3)])


def test_dixon2_detected_on_bench_sized_stack():
    traj = dixon2_motion(DIXON2, np.linspace(0.45, 0.6, 275)).restrict(range(1, 7))
    assert detect_k33_motion_kind(traj) == KIND_DIXON2


# ---------------------------------------------------------------------------
# essential distinctness
# ---------------------------------------------------------------------------


def nearly_planar_first_triple(tilt: float) -> dict[int, np.ndarray]:
    """Vertices 1, 2, 3 in a plane through the origin up to ``tilt`` on
    vertex 3, vertices 4, 5, 6 at heights about 0.02 off it."""
    pts = {}
    for v, angle in ((1, 0.0), (2, 1.1), (3, 2.3)):
        pts[v] = np.array([np.cos(angle), np.sin(angle), 0.0])
    pts[3] = pts[3] + np.array([0.0, 0.0, tilt])
    for v, angle, z in ((4, 0.5, 0.02), (5, 1.9, -0.015), (6, 3.6, 0.018)):
        pts[v] = np.array([np.cos(angle), np.sin(angle), z])
    return {v: p / np.linalg.norm(p) for v, p in pts.items()}


def test_orientation_read_on_best_conditioned_triple():
    # the first triple's determinant is 2e-8 in r1 and -2e-8 in r2, a
    # sign flip the 1e-9 Gram noise allows; the largest |det| triple keeps
    # its sign, so r2 is r1 up to a rotation
    r1 = SphericalRealization(nearly_planar_first_triple(2.2e-8))
    rot = random_rotation(np.random.default_rng(3))
    tilted = nearly_planar_first_triple(-2.2e-8)
    r2 = SphericalRealization({v: rot.apply(p) for v, p in tilted.items()})
    d_first = [np.linalg.det(np.stack([r.point(v) for v in (1, 2, 3)])) for r in (r1, r2)]
    assert d_first[0] > ORIENT_DET_TOL and d_first[1] < -ORIENT_DET_TOL
    assert not essentially_distinct(r1, r2)
    _, gram_dist, spans = distinctness(r1, r2)
    assert gram_dist <= 1e-9 and spans


def test_orientation_too_close_to_zero_raises(monkeypatch):
    # (1, 2, 4) is r1's largest-|det| triple (det 1); in r2 vertex 4 has
    # dropped into the plane of 1 and 2 up to 1e-9, and a loose Gram
    # tolerance lets the pair through to the orientation test
    monkeypatch.setattr("sphflex.spherical.COMPAT_TOL", 2.0)
    pts = {1: [1.0, 0.0, 0.0], 2: [0.0, 1.0, 0.0], 3: [-1.0, 0.0, 0.0]}
    r1 = SphericalRealization({**pts, 4: [0.0, 0.0, 1.0]})
    r2 = SphericalRealization({**pts, 4: [0.0, np.sqrt(1 - 1e-18), 1e-9]})
    with pytest.raises(SphflexError, match="^Gram-equal realizations with an orientation within"):
        essentially_distinct(r1, r2)
    assert not essentially_distinct(r1, r1)


@PROPERTY
@given(st.integers(3, 9), st.integers(0, 2**32 - 1))
def test_distinctness_under_rotation_and_mirror(n, seed):
    rng = np.random.default_rng(seed)
    rho = SphericalRealization({v: random_unit_point(rng) for v in range(n)})
    rot = random_rotation(rng)
    turned = SphericalRealization({v: rot.apply(p) for v, p in rho.placement.items()})
    mirrored = SphericalRealization({v: rot.apply(p * [1, 1, -1]) for v, p in rho.placement.items()})
    assert not essentially_distinct(rho, turned)
    assert not essentially_distinct(turned, rho)
    assert essentially_distinct(rho, mirrored)
    assert essentially_distinct(mirrored, rho)
