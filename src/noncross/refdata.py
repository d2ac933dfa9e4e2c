"""Published reference values used as golden data by the test suite.

Contents:

* characteristic polynomials of the non-crossing partition lattices of
  the irreducible types up to rank 8 (coefficient lists, descending);
* complete tables of full-rank decomposition numbers for the ambients
  A1..A7, D4..D7, E6, E7 and E8;
* the dual M-triangles of the m-divisible non-crossing partition posets
  of types E7 and E8, as closed-form polynomials in x, y and m.

Everything in this module is *input data* transcribed from published
tables; the library recomputes all of it independently and the tests
assert exact agreement.

The tables and the duals are text, parsed per ambient on first use.  A
table line is ``L1,...,Lr=N``: the type labels of a full-rank tuple,
comma-separated, and its decomposition number.  A dual line is
``k l c F1 ... Fs``, fields separated by single blanks: the coefficient
of x^k y^l is the rational number c (``-?N`` or ``-?N/D``) times the
product of the factors.  A factor is ``m`` or a parenthesized sum of
terms ``N``, ``Nm``, ``m^E`` or ``Nm^E`` joined by ``+`` and ``-``, the
first term optionally negative, either of them optionally followed by
``^K`` for its K-th power; a line with no factor is the constant c.  A
dual line that does not match in full raises ``ValueError`` naming it.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .decomp import canonical_tuple
from .polynomial import SparsePolynomial, _ratio
from .typelabel import label

# ---------------------------------------------------------------------------
# characteristic polynomials (coefficients of y^n, y^{n-1}, ..., y^0)

CHI_STAR_COEFFS = {
    "A1": [1, -1],
    "A2": [1, -3, 2],
    "A3": [1, -6, 10, -5],
    "A4": [1, -10, 30, -35, 14],
    "A5": [1, -15, 70, -140, 126, -42],
    "A6": [1, -21, 140, -420, 630, -462, 132],
    "A7": [1, -28, 252, -1050, 2310, -2772, 1716, -429],
    "D4": [1, -12, 39, -48, 20],
    "D5": [1, -20, 106, -230, 220, -77],
    "D6": [1, -30, 235, -780, 1260, -980, 294],
    "D7": [1, -42, 456, -2135, 5110, -6552, 4284, -1122],
    "E6": [1, -36, 300, -1035, 1720, -1368, 418],
    "E7": [1, -63, 777, -3927, 9933, -13299, 9009, -2431],
    "E8": [1, -120, 2135, -15120, 54327, -108360, 121555, -71760, 17342],
}


def chi_star_reference(name):
    coeffs = CHI_STAR_COEFFS[name]
    n = len(coeffs) - 1
    return SparsePolynomial({(0, n - i, 0, 0): c
                             for i, c in enumerate(coeffs)})


# ---------------------------------------------------------------------------
# full-rank decomposition number tables
#
# One line per entry: comma-separated type labels, '=', the count.
# Only full-rank tuples are listed; values not listed are zero.

_TABLES_TEXT = {
"A1": """
A1=1
""",
"A2": """
A2=1
A1,A1=3
""",
"A3": """
A3=1
A2,A1=4
A1^2,A1=2
A1,A1,A1=16
""",
"A4": """
A4=1
A3,A1=5
A1*A2,A1=5
A2,A2=5
A2,A1^2=5
A1^2,A1^2=5
A2,A1,A1=25
A1^2,A1,A1=25
A1,A1,A1,A1=125
""",
"A5": """
A5=1
A4,A1=6
A1*A3,A1=6
A2^2,A1=3
A3,A2=6
A1*A2,A2=12
A1^3,A2=2
A3,A1^2=9
A1*A2,A1^2=18
A1^3,A1^2=3
A3,A1,A1=36
A1*A2,A1,A1=72
A1^3,A1,A1=12
A2,A2,A1=36
A2,A1^2,A1=54
A1^2,A1^2,A1=81
A2,A1,A1,A1=216
A1^2,A1,A1,A1=324
A1,A1,A1,A1,A1=1296
""",
"A6": """
A6=1
A5,A1=7
A1*A4,A1=7
A2*A3,A1=7
A4,A2=7
A1*A3,A2=14
A2^2,A2=7
A1^2*A2,A2=7
A4,A1^2=14
A1*A3,A1^2=28
A2^2,A1^2=14
A1^2*A2,A1^2=14
A3,A3=7
A3,A1*A2=21
A3,A1^3=7
A1*A2,A1*A2=63
A1*A2,A1^3=21
A1^3,A1^3=7
A4,A1,A1=49
A1*A3,A1,A1=98
A2^2,A1,A1=49
A1^2*A2,A1,A1=49
A3,A2,A1=49
A3,A1^2,A1=98
A1*A2,A2,A1=147
A1*A2,A1^2,A1=294
A1^3,A2,A1=49
A1^3,A1^2,A1=98
A3,A1,A1,A1=343
A1*A2,A1,A1,A1=1029
A1^3,A1,A1,A1=343
A2,A2,A2=49
A2,A2,A1^2=98
A2,A1^2,A1^2=196
A1^2,A1^2,A1^2=392
A2,A2,A1,A1=343
A2,A1^2,A1,A1=686
A1^2,A1^2,A1,A1=1372
A2,A1,A1,A1,A1=2401
A1^2,A1,A1,A1,A1=4802
A1,A1,A1,A1,A1,A1=16807
""",
"A7": """
A7=1
A6,A1=8
A1*A5,A1=8
A2*A4,A1=8
A3^2,A1=4
A5,A2=8
A1*A4,A2=16
A2*A3,A2=16
A1^2*A3,A2=8
A1*A2^2,A2=8
A5,A1^2=20
A1*A4,A1^2=40
A2*A3,A1^2=40
A1^2*A3,A1^2=20
A1*A2^2,A1^2=20
A5,A1,A1=64
A1*A4,A1,A1=128
A2*A3,A1,A1=128
A1^2*A3,A1,A1=64
A1*A2^2,A1,A1=64
A4,A3=8
A1*A3,A3=24
A2^2,A3=12
A1^2*A2,A3=24
A1^4,A3=2
A4,A1*A2=32
A1*A3,A1*A2=96
A2^2,A1*A2=48
A1^2*A2,A1*A2=96
A1^4,A1*A2=8
A4,A1^3=16
A1*A3,A1^3=48
A2^2,A1^3=24
A1^2*A2,A1^3=48
A1^4,A1^3=4
A4,A2,A1=64
A1*A3,A2,A1=192
A2^2,A2,A1=96
A1^2*A2,A2,A1=192
A1^4,A2,A1=16
A4,A1^2,A1=160
A1*A3,A1^2,A1=480
A2^2,A1^2,A1=240
A1^2*A2,A1^2,A1=480
A1^4,A1^2,A1=40
A4,A1,A1,A1=512
A1*A3,A1,A1,A1=1536
A2^2,A1,A1,A1=768
A1^2*A2,A1,A1,A1=1536
A1^4,A1,A1,A1=128
A3,A3,A1=64
A3,A1*A2,A1=256
A3,A1^3,A1=128
A1*A2,A1*A2,A1=1024
A1*A2,A1^3,A1=512
A1^3,A1^3,A1=256
A3,A2,A2=64
A3,A2,A1^2=160
A3,A1^2,A1^2=400
A1*A2,A2,A2=256
A1*A2,A2,A1^2=640
A1*A2,A1^2,A1^2=1600
A1^3,A2,A2=128
A1^3,A2,A1^2=320
A1^3,A1^2,A1^2=800
A3,A2,A1,A1=512
A3,A1^2,A1,A1=1280
A1*A2,A2,A1,A1=2048
A1*A2,A1^2,A1,A1=5120
A1^3,A2,A1,A1=1024
A1^3,A1^2,A1,A1=2560
A3,A1,A1,A1,A1=4096
A1*A2,A1,A1,A1,A1=16384
A1^3,A1,A1,A1,A1=8192
A2,A2,A2,A1=512
A2,A2,A1^2,A1=1280
A2,A1^2,A1^2,A1=3200
A1^2,A1^2,A1^2,A1=8000
A2,A2,A1,A1,A1=4096
A2,A1^2,A1,A1,A1=10240
A1^2,A1^2,A1,A1,A1=25600
A2,A1,A1,A1,A1,A1=32768
A1^2,A1,A1,A1,A1,A1=81920
A1,A1,A1,A1,A1,A1,A1=262144
""",
"D4": """
D4=1
A3,A1=9
A1^3,A1=3
A1^2,A2=9
A2,A2=6
A2,A1,A1=36
A1^2,A1,A1=27
A1,A1,A1,A1=162
""",
"D5": """
D5=1
D4,A1=4
A4,A1=8
A1*A3,A1=4
A1^2*A2,A1=4
A3,A2=12
A1*A2,A2=16
A1^3,A2=8
A3,A1^2=22
A1*A2,A1^2=8
A1^3,A1^2=4
A3,A1,A1=80
A1*A2,A1,A1=64
A1^3,A1,A1=32
A2,A2,A1=64
A2,A1^2,A1=96
A1^2,A1^2,A1=80
A2,A1,A1,A1=384
A1^2,A1,A1,A1=448
A1,A1,A1,A1,A1=2048
""",
"D6": """
D6=1
D5,A1=5
A5,A1=10
A1*D4,A1=5
A2*A3,A1=5
A1^2*A3,A1=5
D4,A2=5
A4,A2=10
A1*A3,A2=30
A2^2,A2=10
A1^2*A2,A2=10
A1^4,A2=5
D4,A1^2=5
A4,A1^2=35
A1*A3,A1^2=30
A2^2,A1^2=10
A1^2*A2,A1^2=10
A1^4,A1^2=5
A3,A3=20
A3,A1*A2=45
A3,A1^3=25
A1*A2,A1*A2=70
A1*A2,A1^3=25
D4,A1,A1=25
A4,A1,A1=100
A1*A3,A1,A1=150
A2^2,A1,A1=50
A1^2*A2,A1,A1=50
A1^4,A1,A1=25
A3,A2,A1=125
A3,A1^2,A1=250
A1*A2,A2,A1=250
A1*A2,A1^2,A1=375
A1^3,A2,A1=125
A1^3,A1^2,A1=125
A3,A1,A1,A1=875
A1*A2,A1,A1,A1=1500
A1^3,A1,A1,A1=625
A2,A2,A2=100
A2,A2,A1^2=225
A2,A1^2,A1^2=350
A1^2,A1^2,A1^2=475
A2,A2,A1,A1=750
A2,A1^2,A1,A1=1375
A1^2,A1^2,A1,A1=2000
A2,A1,A1,A1,A1=5000
A1^2,A1,A1,A1,A1=8125
A1,A1,A1,A1,A1,A1=31250
""",
"D7": """
D7=1
D6,A1=6
A6,A1=12
A1*D5,A1=6
A2*D4,A1=6
A1^2*A4,A1=6
A3^2,A1=6
D5,A2=6
A5,A2=12
A1*D4,A2=12
A1*A4,A2=24
A2*A3,A2=36
A1^2*A3,A2=18
A1^3*A2,A2=12
D5,A1^2=9
A5,A1^2=54
A1*D4,A1^2=18
A1*A4,A1^2=36
A2*A3,A1^2=54
A1^2*A3,A1^2=27
A1^3*A2,A1^2=18
D5,A1,A1=36
A5,A1,A1=144
A1*D4,A1,A1=72
A1*A4,A1,A1=144
A2*A3,A1,A1=216
A1^2*A3,A1,A1=108
A1^3*A2,A1,A1=72
D4,A3=6
A4,A3=18
A1*A3,A3=72
A2^2,A3=27
A1^2*A2,A3=54
A1^4,A3=18
D4,A1*A2=12
A4,A1*A2=72
A1*A3,A1*A2=180
A2^2,A1*A2=72
A1^2*A2,A1*A2=108
A1^4,A1*A2=36
D4,A1^3=2
A4,A1^3=60
A1*A3,A1^3=78
A2^2,A1^3=36
A1^2*A2,A1^3=18
A1^4,A1^3=6
D4,A2,A1=36
D4,A1^2,A1=54
A4,A2,A1=144
A4,A1^2,A1=432
A1*A3,A2,A1=468
A1*A3,A1^2,A1=918
A2^2,A2,A1=180
A2^2,A1^2,A1=378
A1^2*A2,A2,A1=324
A1^2*A2,A1^2,A1=486
A1^4,A2,A1=108
A1^4,A1^2,A1=162
D4,A1,A1,A1=216
A4,A1,A1,A1=1296
A1*A3,A1,A1,A1=3240
A2^2,A1,A1,A1=1296
A1^2*A2,A1,A1,A1=1944
A1^4,A1,A1,A1=648
A3,A3,A1=216
A3,A1*A2,A1=648
A3,A1^3,A1=396
A1*A2,A1*A2,A1=1728
A1*A2,A1^3,A1=864
A1^3,A1^3,A1=240
A3,A2,A2=180
A1*A2,A2,A2=576
A1^3,A2,A2=384
A3,A2,A1^2=486
A1*A2,A2,A1^2=1296
A1^3,A2,A1^2=648
A3,A1^2,A1^2=1053
A1*A2,A1^2,A1^2=2592
A1^3,A1^2,A1^2=1080
A3,A2,A1,A1=1512
A3,A1^2,A1,A1=3564
A1*A2,A2,A1,A1=4320
A1*A2,A1^2,A1,A1=9072
A1^3,A2,A1,A1=2448
A1^3,A1^2,A1,A1=4104
A3,A1,A1,A1,A1=11664
A1*A2,A1,A1,A1,A1=31104
A1^3,A1,A1,A1,A1=15552
A2,A2,A2,A1=1296
A2,A2,A1^2,A1=3240
A2,A1^2,A1^2,A1=6804
A1^2,A1^2,A1^2,A1=13122
A2,A2,A1,A1,A1=10368
A2,A1^2,A1,A1,A1=23328
A1^2,A1^2,A1,A1,A1=46656
A2,A1,A1,A1,A1,A1=77760
A1^2,A1,A1,A1,A1,A1=163296
A1,A1,A1,A1,A1,A1,A1=559872
""",
"E6": """
E6=1
D5,A1=12
A5,A1=6
A1*A4,A1=12
A1*A2^2,A1=6
A1^2*A2,A2=36
D4,A2=4
A4,A2=24
A1*A3,A2=24
A2^2,A2=8
D4,A1^2=18
A4,A1^2=36
A1*A3,A1^2=36
A1^2*A2,A1^2=18
A3,A3=27
A3,A1*A2=72
A3,A1^3=36
A1*A2,A1*A2=48
A1*A2,A1^3=24
A1^3,A1^3=12
D4,A1,A1=48
A4,A1,A1=144
A1*A3,A1,A1=144
A2^2,A1,A1=24
A1^2*A2,A1,A1=144
A3,A2,A1=180
A3,A1^2,A1=378
A1*A2,A2,A1=336
A1*A2,A1^2,A1=360
A1^3,A2,A1=168
A1^3,A1^2,A1=180
A2,A2,A2=160
A2,A2,A1^2=288
A2,A1^2,A1^2=504
A1^2,A1^2,A1^2=432
A2,A2,A1,A1=1056
A2,A1^2,A1,A1=1872
A1^2,A1^2,A1,A1=2376
A3,A1,A1,A1=1296
A1*A2,A1,A1,A1=1728
A1^3,A1,A1,A1=864
A2,A1,A1,A1,A1=6912
A1^2,A1,A1,A1,A1=10368
A1,A1,A1,A1,A1,A1=41472
""",
"E7": """
E7=1
E6,A1=9
D6,A1=9
A6,A1=9
A1*D5,A1=9
A1*A5,A1=9
A2*D4,A1=0
A2*A4,A1=9
A1^2*D4,A1=0
A1^2*A4,A1=0
A3^2,A1=0
A1*A2*A3,A1=9
A1^3*A3,A1=0
A2^3,A1=0
A1^2*A2^2,A1=0
A1^4*A2,A1=0
A1^6,A1=0
D5,A2=18
A5,A2=30
A1*A4,A2=54
A1*D4,A2=9
A2*A3,A2=36
A1^2*A3,A2=36
A1*A2^2,A2=36
A1^3*A2,A2=12
A1^5,A2=0
D5,A1^2=54
A5,A1^2=63
A1*D4,A1^2=27
A1*A4,A1^2=81
A2*A3,A1^2=27
A1^2*A3,A1^2=27
A1*A2^2,A1^2=27
A1^3*A2,A1^2=9
A1^5,A1^2=0
D5,A1,A1=162
A5,A1,A1=216
A1*D4,A1,A1=81
A1*A4,A1,A1=324
A2*A3,A1,A1=162
A1^2*A3,A1,A1=162
A1*A2^2,A1,A1=162
A1^3*A2,A1,A1=54
A1^5,A1,A1=0
D4,A3=9
A4,A3=54
A1*A3,A3=135
A2^2,A3=54
A1^2*A2,A3=162
A1^4,A3=27
D4,A1*A2=45
A4,A1*A2=162
A1*A3,A1*A2=243
A2^2,A1*A2=54
A1^2*A2,A1*A2=162
A1^4,A1*A2=27
D4,A1^3=30
A4,A1^3=99
A1*A3,A1^3=126
A2^2,A1^3=18
A1^2*A2,A1^3=54
A1^4,A1^3=9
D4,A2,A1=81
A4,A2,A1=378
A1*A3,A2,A1=783
A2^2,A2,A1=270
A1^2*A2,A2,A1=810
A1^4,A2,A1=135
D4,A1^2,A1=243
A4,A1^2,A1=891
A1*A3,A1^2,A1=1377
A2^2,A1^2,A1=324
A1^2*A2,A1^2,A1=972
A1^4,A1^2,A1=162
D4,A1,A1,A1=729
A4,A1,A1,A1=2916
A1*A3,A1,A1,A1=5103
A2^2,A1,A1,A1=1458
A1^2*A2,A1,A1,A1=4374
A1^4,A1,A1,A1=729
A3,A3,A1=486
A3,A1*A2,A1=1458
A3,A1^3,A1=891
A1*A2,A1*A2,A1=2430
A1*A2,A1^3,A1=1215
A1^3,A1^3,A1=540
A3,A2,A2=432
A1*A2,A2,A2=1188
A1^3,A2,A2=711
A3,A2,A1^2=1053
A1*A2,A2,A1^2=2349
A1^3,A2,A1^2=1323
A3,A1^2,A1^2=2430
A1*A2,A1^2,A1^2=3402
A1^3,A1^2,A1^2=1539
A3,A2,A1,A1=3402
A1*A2,A2,A1,A1=8262
A1^3,A2,A1,A1=4779
A3,A1^2,A1,A1=8019
A1*A2,A1^2,A1,A1=13851
A1^3,A1^2,A1,A1=7047
A3,A1,A1,A1,A1=26244
A1*A2,A1,A1,A1,A1=52488
A1^3,A1,A1,A1,A1=28431
A2,A2,A2,A1=2916
A2,A2,A1^2,A1=6561
A2,A1^2,A1^2,A1=13122
A1^2,A1^2,A1^2,A1=19683
A2,A2,A1,A1,A1=21870
A2,A1^2,A1,A1,A1=45927
A1^2,A1^2,A1,A1,A1=78732
A2,A1,A1,A1,A1,A1=157464
A1^2,A1,A1,A1,A1,A1=295245
A1,A1,A1,A1,A1,A1,A1=1062882
""",
"E8": """
E8=1
E7,A1=15
D7,A1=15
A7,A1=15
A1*E6,A1=15
A1*D6,A1=0
A1*A6,A1=15
A2*D5,A1=15
A2*A5,A1=0
A1^2*D5,A1=0
A1^2*A5,A1=0
A3*D4,A1=0
A3*A4,A1=15
A1*A2*D4,A1=0
A1*A2*A4,A1=15
A1^3*D4,A1=0
A1^3*A4,A1=0
A1*A3^2,A1=0
A2^2*A3,A1=0
A1^2*A2*A3,A1=0
A1^4*A3,A1=0
A1*A2^3,A1=0
A1^3*A2^2,A1=0
A1^5*A2,A1=0
A1^7,A1=0
E6,A2=20
D6,A2=15
A6,A2=60
A1*D5,A2=60
A1*A5,A2=60
A2*D4,A2=20
A2*A4,A2=90
A3^2,A2=45
A1^2*D4,A2=0
A1^2*A4,A2=90
A1*A2*A3,A2=90
A1^3*A3,A2=0
A2^3,A2=0
A1^2*A2^2,A2=45
A1^4*A2,A2=0
A1^6,A2=0
E6,A1^2=45
D6,A1^2=90
A6,A1^2=135
A1*D5,A1^2=135
A1*A5,A1^2=135
A2*D4,A1^2=45
A2*A4,A1^2=90
A3^2,A1^2=45
A1^2*D4,A1^2=0
A1^2*A4,A1^2=90
A1*A2*A3,A1^2=90
A1^3*A3,A1^2=0
A2^3,A1^2=0
A1^2*A2^2,A1^2=45
A1^4*A2,A1^2=0
A1^6,A1^2=0
E6,A1,A1=150
D6,A1,A1=225
A6,A1,A1=450
A1*D5,A1,A1=450
A1*A5,A1,A1=450
A2*D4,A1,A1=150
A2*A4,A1,A1=450
A3^2,A1,A1=225
A1^2*D4,A1,A1=0
A1^2*A4,A1,A1=450
A1*A2*A3,A1,A1=450
A1^3*A3,A1,A1=0
A2^3,A1,A1=0
A1^2*A2^2,A1,A1=225
A1^4*A2,A1,A1=0
A1^6,A1,A1=0
D5,A3=45
A5,A3=90
A1*A4,A3=315
A1*D4,A3=45
A2*A3,A3=270
A1^2*A3,A3=270
A1*A2^2,A3=225
A1^3*A2,A3=225
A1^5,A3=0
D5,A1*A2=195
A5,A1*A2=390
A1*A4,A1*A2=690
A1*D4,A1*A2=195
A2*A3,A1*A2=495
A1^2*A3,A1*A2=495
A1*A2^2,A1*A2=300
A1^3*A2,A1*A2=300
A1^5,A1*A2=0
D5,A1^3=150
A5,A1^3=300
A1*A4,A1^3=375
A1*D4,A1^3=150
A2*A3,A1^3=225
A1^2*A3,A1^3=225
A1*A2^2,A1^3=75
A1^3*A2,A1^3=75
A1^5,A1^3=0
D5,A2,A1=375
A5,A2,A1=750
A1*A4,A2,A1=1950
A1*D4,A2,A1=375
A2*A3,A2,A1=1575
A1^2*A3,A2,A1=1575
A1*A2^2,A2,A1=1200
A1^3*A2,A2,A1=1200
A1^5,A2,A1=0
D5,A1^2,A1=1125
A5,A1^2,A1=2250
A1*A4,A1^2,A1=3825
A1*D4,A1^2,A1=1125
A2*A3,A1^2,A1=2700
A1^2*A3,A1^2,A1=2700
A1*A2^2,A1^2,A1=1575
A1^3*A2,A1^2,A1=1575
A1^5,A1^2,A1=0
D5,A1,A1,A1=3375
A5,A1,A1,A1=6750
A1*A4,A1,A1,A1=13500
A1*D4,A1,A1,A1=3375
A2*A3,A1,A1,A1=10125
A1^2*A3,A1,A1,A1=10125
A1*A2^2,A1,A1,A1=6750
A1^3*A2,A1,A1,A1=6750
A1^5,A1,A1,A1=0
D4,D4=5
D4,A4=15
A4,A4=138
D4,A1*A3=105
A4,A1*A3=390
A1*A3,A1*A3=1155
D4,A2^2=35
A4,A2^2=180
A1*A3,A2^2=360
A2^2,A2^2=95
D4,A1^2*A2=135
A4,A1^2*A2=630
A1*A3,A1^2*A2=1035
A2^2,A1^2*A2=270
A1^2*A2,A1^2*A2=495
D4,A1^4=30
A4,A1^4=165
A1*A3,A1^4=255
A2^2,A1^4=60
A1^2*A2,A1^4=135
A1^4,A1^4=30
D4,A3,A1=225
A4,A3,A1=1215
A1*A3,A3,A1=4050
A2^2,A3,A1=1575
A1^2*A2,A3,A1=5400
A1^4,A3,A1=1350
D4,A1*A2,A1=975
A4,A1*A2,A1=4590
A1*A3,A1*A2,A1=10800
A2^2,A1*A2,A1=3450
A1^2*A2,A1*A2,A1=9900
A1^4,A1*A2,A1=2475
D4,A1^3,A1=750
A4,A1^3,A1=3375
A1*A3,A1^3,A1=6750
A2^2,A1^3,A1=1875
A1^2*A2,A1^3,A1=4500
A1^4,A1^3,A1=1125
D4,A2,A2=175
A4,A2,A2=1140
A1*A3,A2,A2=3300
A2^2,A2,A2=1300
A1^2*A2,A2,A2=4500
A1^4,A2,A2=1125
D4,A2,A1^2=675
A4,A2,A1^2=3015
A1*A3,A2,A1^2=8550
A2^2,A2,A1^2=2925
A1^2*A2,A2,A1^2=9000
A1^4,A2,A1^2=2250
D4,A1^2,A1^2=1800
A4,A1^2,A1^2=8640
A1*A3,A1^2,A1^2=17550
A2^2,A1^2,A1^2=5175
A1^2*A2,A1^2,A1^2=13500
A1^4,A1^2,A1^2=3375
D4,A2,A1,A1=1875
A4,A2,A1,A1=9450
A1*A3,A2,A1,A1=27000
A2^2,A2,A1,A1=9750
A1^2*A2,A2,A1,A1=31500
A1^4,A2,A1,A1=7875
D4,A1^2,A1,A1=5625
A4,A1^2,A1,A1=26325
A1*A3,A1^2,A1,A1=60750
A2^2,A1^2,A1,A1=19125
A1^2*A2,A1^2,A1,A1=54000
A1^4,A1^2,A1,A1=13500
D4,A1,A1,A1,A1=16875
A4,A1,A1,A1,A1=81000
A1*A3,A1,A1,A1,A1=202500
A2^2,A1,A1,A1,A1=67500
A1^2*A2,A1,A1,A1,A1=202500
A1^4,A1,A1,A1,A1=50625
A3,A3,A2=1350
A3,A1*A2,A2=5175
A3,A1^3,A2=3825
A1*A2,A1*A2,A2=15000
A1*A2,A1^3,A2=9825
A1^3,A1^3,A2=6000
A3,A3,A1^2=4050
A3,A1*A2,A1^2=13500
A3,A1^3,A1^2=9450
A1*A2,A1*A2,A1^2=30825
A1*A2,A1^3,A1^2=17325
A1^3,A1^3,A1^2=7875
A3,A3,A1,A1=12150
A3,A1*A2,A1,A1=42525
A3,A1^3,A1,A1=30375
A1*A2,A1*A2,A1,A1=106650
A1*A2,A1^3,A1,A1=64125
A1^3,A1^3,A1,A1=33750
A3,A2,A2,A1=10575
A3,A2,A1^2,A1=29700
A3,A1^2,A1^2,A1=76950
A1*A2,A2,A2,A1=35700
A1*A2,A2,A1^2,A1=84825
A1*A2,A1^2,A1^2,A1=171450
A1^3,A2,A2,A1=25125
A1^3,A2,A1^2,A1=55125
A1^3,A1^2,A1^2,A1=94500
A3,A2,A1,A1,A1=91125
A3,A1^2,A1,A1,A1=243000
A1*A2,A2,A1,A1,A1=276750
A1*A2,A1^2,A1,A1,A1=597375
A1^3,A2,A1,A1,A1=185625
A1^3,A1^2,A1,A1,A1=354375
A3,A1,A1,A1,A1,A1=759375
A1*A2,A1,A1,A1,A1,A1=2025000
A1^3,A1,A1,A1,A1,A1=1265625
A2,A2,A2,A2=9350
A2,A2,A2,A1^2=24975
A2,A2,A1^2,A1^2=64350
A2,A1^2,A1^2,A1^2=143100
A1^2,A1^2,A1^2,A1^2=261225
A2,A2,A2,A1,A1=78000
A2,A2,A1^2,A1,A1=203625
A2,A1^2,A1^2,A1,A1=479250
A1^2,A1^2,A1^2,A1,A1=951750
A2,A2,A1,A1,A1,A1=641250
A2,A1^2,A1,A1,A1,A1=1569375
A1^2,A1^2,A1,A1,A1,A1=3341250
A2,A1,A1,A1,A1,A1,A1=5062500
A1^2,A1,A1,A1,A1,A1,A1=11390625
A1,A1,A1,A1,A1,A1,A1,A1=37968750
""",
}


@lru_cache(maxsize=None)
def reference_table(name):
    """Parse one of the published full-rank tables: tuple-key -> value.
    Each distinct label token is parsed once per table."""
    table, labels = {}, {}
    for line in _TABLES_TEXT[name].strip().splitlines():
        lhs, rhs = line.split("=")
        tokens = lhs.split(",")
        for tok in tokens:
            if tok not in labels:
                labels[tok] = label(tok)
        key = canonical_tuple(map(labels.__getitem__, tokens))
        value = int(rhs)
        if key in table and table[key] != value:
            raise AssertionError("conflicting reference entries for %r" % (line,))
        table[key] = value
    return table


REFERENCE_TABLE_NAMES = tuple(_TABLES_TEXT)


# ---------------------------------------------------------------------------
# dual M-triangles of E7 and E8
#
# One line per coefficient of x^k y^l, as the paper prints it: k, l, the
# rational factor, then the factored polynomial in m.  Coefficients not
# listed are zero.

_DUALS_TEXT = {
"E7": """
7 7 1/280 m (9m-2) (9m-4) (9m-5) (9m-8) (3m-1) (3m-2)
7 6 -9/40 m^2 (9m-2) (9m-5) (3m-1) (3m-2) (9m-4)
7 5 3/40 m^2 (9m-2) (9m-4) (3m-1) (243m^2-81m-14)
7 4 -3/8 m^2 (3m-1) (9m-2) (9m+2) (81m^2-9m-4)
7 3 3/8 m^2 (9m-2) (3m+1) (9m+2) (81m^2+9m-4)
7 2 -3/40 m^2 (3m+1) (9m+2) (9m+4) (243m^2+81m-14)
7 1 9/40 m^2 (3m+1) (3m+2) (9m+2) (9m+4) (9m+5)
7 0 -1/280 m (3m+1) (3m+2) (9m+2) (9m+4) (9m+5) (9m+8)
6 6 9/40 m (9m-2) (9m-5) (3m-1) (3m-2) (9m-4)
6 5 -27/20 m^2 (27m-13) (9m-2) (9m-4) (3m-1)
6 4 27/8 m^2 (3m-1) (9m-2) (243m^2-45m-10)
6 3 -27/2 m^2 (9m-2) (9m+2) (27m^2-1)
6 2 27/8 m^2 (3m+1) (9m+2) (243m^2+45m-10)
6 1 -27/20 m^2 (3m+1) (9m+2) (9m+4) (27m+13)
6 0 9/40 m (3m+1) (3m+2) (9m+2) (9m+4) (9m+5)
5 5 3/40 m (207m-103) (9m-2) (9m-4) (3m-1)
5 4 -27/8 m^2 (207m-71) (3m-1) (9m-2)
5 3 9/4 m^2 (9m-2) (1863m^2-144m-55)
5 2 -9/4 m^2 (9m+2) (1863m^2+144m-55)
5 1 27/8 m^2 (3m+1) (9m+2) (207m+71)
5 0 -3/40 m (3m+1) (9m+2) (9m+4) (207m+103)
4 4 21/8 m (63m-23) (3m-1) (9m-2)
4 3 -189/2 m^2 (21m-5) (9m-2)
4 2 63/4 m^2 (1701m^2-37)
4 1 -189/2 m^2 (9m+2) (21m+5)
4 0 21/8 m (3m+1) (9m+2) (63m+23)
3 3 21/2 m (27m-7) (9m-2)
3 2 -189/2 m^2 (81m-13)
3 1 189/2 m^2 (81m+13)
3 0 -21/2 m (9m+2) (27m+7)
2 2 21/2 m (63m-11)
2 1 -1323 m^2
2 0 21/2 m (63m+11)
1 1 63 m
1 0 -63 m
0 0 1
""",
"E8": """
8 8 1/1344 m (15m-8) (15m-11) (15m-14) (5m-1) (5m-2) (3m-1) (5m-3)
8 7 -5/56 m^2 (15m-8) (15m-11) (5m-1) (5m-2) (5m-3) (3m-1)
8 6 5/48 m^2 (15m-8) (5m-1) (3m-1) (5m-2) (225m^2-90m-13)
8 5 -15/8 m^2 (5m-1) (5m-2) (3m-1) (5m+1) (75m^2-15m-4)
8 4 1/32 m^2 (5m+1) (5m-1) (84375m^4-12375m^2+436)
8 3 -15/8 m^2 (5m-1) (3m+1) (5m+1) (5m+2) (75m^2+15m-4)
8 2 5/48 m^2 (3m+1) (5m+1) (5m+2) (15m+8) (225m^2+90m-13)
8 1 -5/56 m^2 (3m+1) (5m+1) (5m+2) (5m+3) (15m+8) (15m+11)
8 0 1/1344 m (3m+1) (5m+1) (5m+2) (5m+3) (15m+8) (15m+11) (15m+14)
7 7 5/56 m (15m-8) (15m-11) (5m-1) (5m-2) (5m-3) (3m-1)
7 6 -25/8 m^2 (5m-1) (3m-1) (5m-2) (15m-8)^2
7 5 375/8 m^2 (5m-1) (5m-2) (3m-1) (45m^2-12m-2)
7 4 -15/8 m^2 (5m+1) (5m-1) (5625m^3-2250m^2-75m+74)
7 3 15/8 m^2 (5m-1) (5m+1) (5625m^3+2250m^2-75m-74)
7 2 -375/8 m^2 (3m+1) (5m+1) (5m+2) (45m^2+12m-2)
7 1 25/8 m^2 (3m+1) (5m+1) (5m+2) (15m+8)^2
7 0 -5/56 m (3m+1) (5m+1) (5m+2) (5m+3) (15m+8) (15m+11)
6 6 5/48 m (15m-8) (5m-1) (5m-2) (3m-1) (195m-107)
6 5 -375/8 m^2 (39m-16) (5m-1) (5m-2) (3m-1)
6 4 5/16 m^2 (5m-1) (219375m^3-103500m^2+3675m+2342)
6 3 -75/4 m^2 (5m-1) (5m+1) (975m^2-32)
6 2 5/16 m^2 (5m+1) (219375m^3+103500m^2+3675m-2342)
6 1 -375/8 m^2 (3m+1) (5m+1) (5m+2) (39m+16)
6 0 5/48 m (3m+1) (5m+1) (5m+2) (15m+8) (195m+107)
5 5 15 m (30m-13) (5m-1) (5m-2) (3m-1)
5 4 -15 m^2 (5m-1) (2250m^2-1395m+218)
5 3 75 m^2 (5m-1) (900m^2-66m-23)
5 2 -75 m^2 (5m+1) (900m^2+66m-23)
5 1 15 m^2 (5m+1) (2250m^2+1395m+218)
5 0 -15 m (3m+1) (5m+1) (5m+2) (30m+13)
4 4 1/2 m (5m-1) (10350m^2-6675m+1084)
4 3 -15 m^2 (1380m-307) (5m-1)
4 2 5 m^2 (31050m^2-577)
4 1 -15 m^2 (5m+1) (1380m+307)
4 0 1/2 m (5m+1) (10350m^2+6675m+1084)
3 3 45 m (45m-11) (5m-1)
3 2 -1125 m^2 (27m-4)
3 1 1125 m^2 (27m+4)
3 0 -45 m (5m+1) (45m+11)
2 2 35/2 m (105m-17)
2 1 -3675 m^2
2 0 35/2 m (105m+17)
1 1 120 m
1 0 -120 m
0 0 1
""",
}

# a dual line, in the grammar of the module docstring
_TERM = r"(?:[0-9]+|[0-9]*m(?:\^[0-9]+)?)"
_LINE = (r"[0-9]+ [0-9]+ -?[0-9]+(?:/[1-9][0-9]*)?"
         r"(?: (?:m|\(-?%s(?:[+-]%s)*\))(?:\^[0-9]+)?)*" % (_TERM, _TERM))


@lru_cache(maxsize=None)
def _factor_vector(field):
    """The integer coefficients, lowest power of m first, of one factor
    of a line that ``_LINE`` matched, its power taken.  The cached lists
    are shared and not to be changed."""
    from .closedform import _convolve
    body, _, power = field.lstrip("(").partition(")")
    vec = []
    for term in body.replace("-", "+-").lstrip("+").split("+"):
        coeff, m, exponent = term.partition("m")
        d = int(exponent[1:]) if exponent else len(m)
        vec += [0] * (d + 1 - len(vec))
        vec[d] += int(coeff + "1" if coeff in ("", "-") else coeff)
    out = vec
    for _ in range(int(power[1:] or 1) - 1):
        out = _convolve(out, vec)
    return out


def _dual_line(line):
    """One line of ``_DUALS_TEXT`` as (k, l, num, den, vec): the
    coefficient of x^k y^l is num/den times the polynomial in m of
    integer coefficients ``vec``, lowest power first, the product of the
    line's factors convolved.  Raises ``ValueError``, naming the line,
    unless ``_LINE`` matches it in full."""
    from .closedform import _convolve
    if re.fullmatch(_LINE, line) is None:
        raise ValueError("malformed dual M-triangle line %r" % line)
    k, l, factor, *fields = line.split(" ")
    num, _, den = factor.partition("/")
    vec = [1]
    for field in fields:
        vec = _convolve(vec, _factor_vector(field))
    return int(k), int(l), int(num), int(den or 1), vec


@lru_cache(maxsize=None)
def golden_dual(name):
    """The published dual M-triangle of NC^m for E7 or E8 (symbolic m),
    parsed from that ambient's lines of ``_DUALS_TEXT``; any other name
    raises ``KeyError``."""
    terms = {}
    for line in _DUALS_TEXT[name].strip().splitlines():
        k, l, num, den, vec = _dual_line(line)
        for i, c in enumerate(vec):
            terms[k, l, 0, i] = _ratio(num * c, den)
    return SparsePolynomial(terms)
