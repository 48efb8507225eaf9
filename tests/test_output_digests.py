"""Standing byte-identity check of the CLI's answers.

The SHA-256 digest of `analyze` and `nu` standard output at seed 0, and the
exit code, are pinned for a fixed spec set.  A change meant to keep every
answer the same keeps these digests; a change that alters output on purpose
updates them and names the fields that moved.
"""

import hashlib

import pytest

from maxsub.cli import main

DIGESTS = {
    ('analyze', 'sym:4'): (
        0, "4e7831df3e7e563561d16c7b3d7270dbfec9db06b56b546c4e3485f40f603937"),
    ('analyze', 'sym:5'): (
        0, "80f4db6e54eb4cf2797a495f0923bcbe956336083d97fee5539122291cd8d07a"),
    ('analyze', 'alt:5'): (
        0, "502c3773bb65aba5c4d80109348152307e4949c122091839a4b0a5bab720c620"),
    ('analyze', 'psl:2,7'): (
        0, "3a0756e97348490915dd71dc8decb0cb0424d5da571cd691a392d9110c055ec0"),
    ('analyze', 'agammal:1,8'): (
        0, "3b13545001e47c9c4eb2365981bcadecfdf591603bf51573b155c430159036f2"),
    ('analyze', 'alt:6'): (
        0, "c68eed89ac14ce4c4e38cceb72840229f9e64ef8839e3a00b9c711121ff508f0"),
    ('analyze', 'sym:6'): (
        0, "6c769c89213e5ba9be58949ed97d1160c9a84b1a1365c1b2f7b1861c9a394721"),
    ('analyze', 'agl:3,2'): (
        0, "b97b4b3cd272f4f21379885d7881506a5c5b4fa1d626aa6cb600d2dd21149be8"),
    ('analyze', 'hat:agl:1,8;2'): (
        0, "7f91611ebfbbef24daf95f3b0a3c6e335bea55859b1f96b5dd6e62b20030af59"),
    ('analyze', 'lk:sym:4,2'): (
        0, "69aa5391467e55da6d66fed4cf881b7ae23ff459c6af6d016e14aa71897e1ae7"),
    ('analyze', 'dp:sym:3+sym:3+sym:3'): (
        0, "6c217ca90f3aa786455f33931ec35ae57b5661f77d0aea1ff07b44d619dcaa28"),
    ('nu', 'sym:4'): (
        0, "620a463a1c72c3a6284a4fb505a5f0b6637fe591641292f01dbf86590dfff039"),
    ('nu', 'sym:5'): (
        0, "268e3531a20336da6c36a095ad9367680ab5d937a749900d988d59a09799ab93"),
    ('nu', 'alt:5'): (
        0, "53f839e6d8f24ef6164b75d2cc233782b1ede9d49e81b17fc5e4455410463f77"),
    ('nu', 'psl:2,7'): (
        0, "fec3171d48c042f9fbd98a131a7d512e03e1104619d257eaab2077fe86c828d3"),
    ('nu', 'agammal:1,8'): (
        0, "ee3333dd017f6f36c55d90372bd80234bb5fc36b3951d36cd10bcde3c47b86c7"),
    ('nu', 'alt:6'): (
        0, "27405ff4c9c756644a38f605f49345802ab09b7567d77cff59548f7e47884ccc"),
    ('nu', 'sym:6'): (
        0, "963fb273fd3ab8abfbeb20f026e774d2e26a949e0d8224c9cefce825a333a83b"),
    ('nu', 'agl:3,2'): (
        0, "34b7a6e69a884e8f16c8de68debd06d63c58980acf0b3454ba0eb700bbfa84eb"),
    # "nu": 3, from the crown factorization of P_G(k): the order is above
    # the lattice limit
    ('nu', 'hat:agl:1,8;2'): (
        0, "24cba9eae59a18a923325c723074c5420fb9aeed1e352c5501240e299a5441b9"),
    ('nu', 'lk:sym:4,2'): (
        0, "747d99173ac20033ce47dd94a8be761282925a0ced3544fe7c4bbc54db5c5c8c"),
    ('nu', 'dp:sym:3+sym:3+sym:3'): (
        0, "c4268fa547d71d3207c74f74b2fd6d5ce63361d5840e717c73c061d7086facd4"),
}


@pytest.mark.parametrize("command,spec", sorted(DIGESTS))
def test_stdout_digest_is_pinned(capsys, command, spec):
    code = main(["--seed", "0", command, spec])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
        DIGESTS[(command, spec)]
