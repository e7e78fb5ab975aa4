"""Pinned behaviour of every check at degenerate points.

The report pins see only the points the sampler accepts.  This corpus pins
what each evaluator does at the points it rejects as well: which exception
it raises first, with its message, or which values it compares.

The rule that fixes the points:
- for each check, an RNG stream keyed ``corpus|<id>`` gives 3 base points
  from the check's own ``sample``;
- each base point is kept, then each scalar slot is set in turn to each of
  CORPUS_VALUES, then each pair of scalar slots is made equal (the later slot,
  in draw order, takes the earlier one's value);
- each point runs at the check's first three default sizes.

Each evaluation records one line: the comparison labels and values, or the
exception class and message.  A change that moves a digest on purpose
re-pins it and gives its reason; points or values are never dropped to make
a digest hold.
"""

import functools
import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from qdetlab import GaussianRational
from qdetlab.identities import REGISTRY, ParamPoint

CORPUS_VALUES = [GaussianRational(Fraction(v)) for v in ("0", "1", "-1", "2", "1/2", "-1/2", "3", "1/3", "-2/3")]

# sha256 of each check's lines, joined by newlines.
CORPUS_SHA256 = {
    "andrews": "fe6d496f6a22b44099c6624a6ee1d5946ac7f8caec33eb16132f97347749724a",
    "bottom_rows": "4cb3037eca68a189f60a6225bde9b2da217ed401b501061787c6357c746696ed",
    "c1_pfaffian_square": "3a652811c894a518878a132c43297a2ae70da662cd9bc09fc83beaaeb1b45f4f",
    "classical_hahn": "bc5717ecc18e80153e09282388ed3d093f26f6d0e0f022d0a918245db8132b9a",
    "classical_wilson_even": "b2e1bed0777beafb9905e7e6c940601403053fffd9684eefb1355c7ea2ea0f26",
    "classical_wilson_odd": "4604c6ebcbb310e67c837341c1f1cc16fae3ba455d6f4eb466ac81a697897cb3",
    "conjecture_mw3": "1213dd4008f6b2c8b066602a00776dbd1e0c0b62e0454ad16f803c6790e2ea4f",
    "cor_even_aw": "93fdd0564db94e3ba2a1953b5e7dda04e3f1291c2cee54d13a4c7aeae31e1748",
    "cor_even_phi": "b7d738cca59381c086ec54f4d4f58e19326ba7a9c189c2e834ce387356de3bd8",
    "cor_odd_aw": "b7d31cfceb80a918d212338b26cd2520842e53cd253e0e9ab244a58ed12077f8",
    "cor_odd_phi": "8a2775240b940f7396a006f84c2ace5cbc077f92f1e893b56f88f6fd87c6b3c4",
    "dj_generic": "2bfba3688143cddef1e4e52fec233455741fa858605bf3f73610c27836ff64c7",
    "dj_specialized": "87ec3d254a6b038c42aabb2a8d7f76547a924846145be63ffe9318b18380d0ca",
    "even_odd_factorization": "c438274d396d4fba0b98f4d83055bd98d7df8d66244f12803991d3f01d35696d",
    "hankel": "2008c35a0cd521ae3c62a3bedb257f6163c54c0991e8a2359a60c8d5735642cf",
    "m_closed": "a666dd340d338ee955304fe6731b49bb6ace9f4d214086dc7bda64cf71c3e957",
    "m_recurrence": "58edd6a447a757fdc083daed3291634d2f4dabe7fd036e97cbdeb3c28b429dbb",
    "mehta_wang": "4bcb3ce3d6ad89641498dde7f99b5e461b65f7c2608ffb60b14eacaa1961c01c",
    "nishizawa": "66ab3c1a2a10873340d8e3f06c4626150e61061d8d4843861a1e773876de5c5e",
    "pfaffian_moments": "33255fb08b17c5952a5886efc5ac4789f3bf51460f6412a7f756c20818959428",
    "phi_contiguous_1": "25a2477336dbc4f53b0fbe70a6539ed171f986b499a64eb9c63a97fc31db150d",
    "phi_contiguous_2": "0581cd3de3053827e4afa4083bbd32328ae3fb691b7ceebe570f065c554f538e",
    "phi_contiguous_3": "fb85a0ada17f1689c35fd3318074aaa074d09c109ccc32c6ff050b939c642e61",
    "pq_lemma": "12528e8595d893c63a2e3130604fc041e2b59b212fa11fdbeba164f089c475d3",
    "q_kratt": "bc2857947bb170fd4343e45de157e3d0b38162802791f0bc34b819525ea53443",
    "quadratic_clean": "461f6197f6364f51547b3489f638619d00e552371143d52235c8ae3da9409c9b",
    "quadratic_full": "51c4d17dc42e8c814c3a9d5610de855f45349b921d3d9ec92373c41845f782d1",
    "quadratic_phi": "edfa5546de72fdc7a25249a3ff874d406cf5c4aef0e2a70a74b2f36094559a8b",
    "r_closed": "48331bc03b5706aac08d546477143a744d81a8691d6deaad1d938dce61b2ab00",
    "r_recurrence": "94697d1d2ca4d0d812ae28d67aa573cc5ea6f8812faea8752b365d16ce0ca6cb",
    "r_sum": "26763d8feb4478fc41183441979207619eab6a5c2d1e536a4a749fa61b8d94d1",
    "residue_ids": "5bc8e73cee18b255279533ca11921d4e7a0c90955f539d3461be5356be0215d3",
    "thm_main_aw": "e7bdbca05631e7848fd9ef3950a675d7816fb59a0ccb2d43a74c301394b54a7e",
    "thm_main_phi": "7492648d8b486f01f13ccb202457e48e6b4bd2e3c65853dc70bc6ff5571efe67",
    "thm_rows": "c1fbf86f4d598fed0bc074749bde6f3bcb94291b29458467698baabcda1ca891",
    "triangular_inverses": "2188a3a286825c499e47694a94360404c062106f0a4684de832e9571096b1827",
    "vandermonde_vw": "42638397eb321d9b8aa633ace18955c5a745e2350ed5d3ca716582ff42e96971",
    "w8_contiguous": "3dae3b8b5961a6a20d59eb4c803037bb6a2f958d41bd3d5c5bc6ddf1f099d841",
    "watson": "08120b12660f4f7f9a29353d51efb1ade199ef70efe6238f8a7a9277656bf487",
}
# sha256 of every check's lines, in check-id order.
CORPUS_SHA256_ALL = "f055ca442cb67200dc1901ffa92a8e1fb6a64eda1737eeb72a8e8988b7e5f135"


def corpus_points(entry):
    """The points of the rule above, in order."""
    rng = random.Random(f"corpus|{entry.id}")
    for _ in range(3):
        base = entry.sample(rng)
        slots = [name for name, value in base.items() if type(value) is GaussianRational]
        yield base
        for name in slots:
            for value in CORPUS_VALUES:
                yield {**base, name: value}
        for first, second in itertools.combinations(slots, 2):
            yield {**base, second: base[first]}


@functools.cache
def corpus_lines(check_id):
    """One line per evaluation: point index, size, then the comparisons or
    the first exception raised."""
    entry = REGISTRY[check_id]
    lines = []
    for index, slots in enumerate(corpus_points(entry)):
        point = ParamPoint(**slots)
        for n in entry.default_sizes[:3]:
            try:
                comps = entry.evaluate(point, n)
            except Exception as exc:
                outcome = f"{type(exc).__name__}: {exc}"
            else:
                outcome = " | ".join(f"{label}: {lhs} vs {rhs}" for label, lhs, rhs in comps)
            lines.append(f"{index} {n} {outcome}")
    return tuple(lines)


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("check_id", sorted(REGISTRY))
def test_corpus_digest_per_check(check_id):
    assert digest(corpus_lines(check_id)) == CORPUS_SHA256[check_id]


def test_corpus_digest_whole():
    lines = [line for check_id in sorted(REGISTRY) for line in corpus_lines(check_id)]
    assert len(lines) == 13113
    assert digest(lines) == CORPUS_SHA256_ALL
