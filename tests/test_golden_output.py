"""Golden CLI output: exact stdout of analyze, construct, spectrum and
verify-table1.

Each command's stdout is pinned by its SHA-256, so any change to a report
byte (key order, a value, the CSV layout) fails here.  The digests were
recorded from the implementation that wrapped every Walsh value in CycInt,
before spectra were stored as flat coordinates; the sampled p = 5
`--certify` case was recorded from the row-wise battery, which checks every
b of ceil(10000 / q) seeded directions c instead of 10,000 independently
drawn pairs; the `verify-table1` cases were recorded while the catalog
still searched other primitive-element realizations on a mismatch, so they
pin that the pinned realization alone prints the same table.  The commands
run in process through `pbent.cli.main`.
"""

import contextlib
import hashlib
import io

import pytest

from pbent.cli import main

GOLDEN = [
    (('analyze', 'p=3 n=4 f=Tr(x^34+x^2)'),
     0, '949618121a76668b51cbcdc2512aa00d07d8b0dd83a68a3310e27341b0aff370'),
    (('analyze', 'p=3 n=3 f=Tr(x^8+x^14)'),
     0, '5664b1ce484e280bd8c5bd5d46d27059ef09bb299505ae89d282117baf8c924a'),
    (('analyze', 'p=5 n=2 f=Tr(x^2)'),
     0, 'd3f4204a4f4b81c021a72ba16052a563167fae363f87163451a0ec251138bdbd'),
    (('analyze', 'p=5 n=3 f=Tr(x^2)'),
     0, '453e0a3ea6f22393251a2b942bf2bd7b8413eaae764df7514e8944551ca56ee5'),
    (('analyze', 'p=7 n=1 f=Tr(x^2)'),
     0, 'b60b9fcb7819610404b391f9871b02d7db323cdb0928147f2725db38e52a32a2'),
    (('analyze', 'p=3 n=3 f=Tr(x^4)'),
     0, 'c8a5a80242d3312d48c75f7bc36c887053446cfca2767e8b74865fa0bc27ebd4'),
    (('analyze', 'p=3 n=2 f=Tr(x)'),
     0, 'ee0fff372b41a2291b66c65e79e4c37d613ac927f37d3c5458ba50e6e96ddb1a'),
    (('analyze', 'p=5 n=2 f=Tr(x^3)'),
     0, '59e28fea860465aac787d93948dc9d7790226a5547c6fb36e581299380e8238c'),
    (('analyze', 'p=7 n=2 f=Tr(x^2)'),
     0, '0085ded92deabdde34a0401c65ce6b9cbaee9a35466190aa9e813c22756e0586'),
    (('analyze', 'p=3 n=4 f=Tr(x^34+x^2)', '--dual-form'),
     0, 'd49a4d5e00e03721746c2e4fb3d882941f73630aea323a24793178f1d57c200c'),
    (('analyze', 'p=3 n=4 f=Tr(x^34+x^2)', '--certify', '--seed', '5'),
     0, '37ab52f1c26a94eae31bc9efe6a4a083d1592366682ffdd921a5ca055d52c7cf'),
    (('analyze', 'p=5 n=3 f=Tr(g^1*x^2)', '--certify', '--seed', '3'),
     0, 'b3390bbcf02521e903589f1b019dc937d17831a7912c3c8bff14fe88deab23db'),
    (('analyze', 'p=5 n=2 f=Tr(x^2)', '--certify', '--dual-form'),
     0, 'eb25270ff146acddbdfcc413859f60355a1abe37133858865d8af4d400e84c10'),
    (('construct', 'trinomial', '--k', '1', '--j', '2', '--t', '1', '--analyze'),
     0, 'be240c15b3147ac6be58e43d3ad51de45d21e1020e9876699899a3d636bc0de4'),
    (('construct', 'trinomial', '--k', '1', '--j', '2', '--t', '1', '--analyze', '--certify'),
     0, '526f62857a5a48ce6fdf4e20139c01a8e4ea764e9d4ae89153b08ce2e38ac252'),
    (('spectrum', 'p=3 n=3 f=Tr(x^8+x^14)'),
     0, '3853921c53847e65099af6ca253e2ed392b8f12d9541d04dffc059756d8a0341'),
    (('spectrum', 'p=5 n=2 f=Tr(x^2+x)'),
     0, 'c972c98b36dbfff66d9b9689548403fd15aefbb6acf604af3a8c8810755f9ad1'),
    (('verify-table1', '--json'),
     0, 'fbdd8ca03af61bfbfb6b02ef5fea006d95e2763cdec008cc4ec0c9645b7cc3ba'),
    (('verify-table1',),
     0, '0ded89b4c32ee7e3f148c6dbfc2d9ec80c8119bb64904a02767366e1b813714f'),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN,
                         ids=[" ".join(g[0]) for g in GOLDEN])
def test_cli_stdout_is_pinned(argv, code, digest):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        got = main(list(argv))
    assert got == code
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
