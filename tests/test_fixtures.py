"""Shipped large-number fixtures: loading, resolution, verification."""

import shutil

import pytest

from shorsim.errors import DomainError
from shorsim.fixtures import (
    SupplementaryFixture,
    fixture_root,
    load_fixture,
    verify_fixture,
)


def _passes(fixture: SupplementaryFixture) -> bool:
    return all(ok for _, ok in verify_fixture(fixture))


class TestLoading:
    def test_both_fixtures_ship(self):
        for name in ("rsa768", "n20000"):
            assert (fixture_root() / name).is_dir()
            assert load_fixture(name).name == name

    def test_rsa768_shapes(self):
        fx = load_fixture("rsa768")
        assert fx.n.bit_length() == 768
        assert fx.p.bit_length() == 384
        assert fx.q.bit_length() == 384
        assert len(fx.bases) == 2
        assert fx.p * fx.q == fx.n

    def test_n20000_shapes(self):
        fx = load_fixture("n20000")
        assert fx.n.bit_length() == 20000
        assert fx.p.bit_length() == 10000
        assert fx.q.bit_length() == 10000
        assert len(fx.bases) == 1

    def test_unknown_name_rejected(self):
        with pytest.raises(DomainError):
            load_fixture("rsa1024")

    def test_load_by_direct_path(self):
        direct = fixture_root() / "rsa768"
        fx = load_fixture(direct)
        assert fx.name == "rsa768"
        assert fx.n.bit_length() == 768

    def test_missing_file_rejected(self, tmp_path):
        broken = tmp_path / "broken"
        shutil.copytree(fixture_root() / "rsa768", broken)
        (broken / "q.txt").unlink()
        with pytest.raises(DomainError):
            load_fixture(broken)

    def test_unreadable_base_file_rejected(self, tmp_path):
        broken = tmp_path / "broken"
        shutil.copytree(fixture_root() / "rsa768", broken)
        (broken / "a1.txt").unlink()
        (broken / "a1.txt").mkdir()
        with pytest.raises(DomainError, match="cannot read fixture file"):
            load_fixture(broken)

    def test_no_bases_rejected(self, tmp_path):
        broken = tmp_path / "broken"
        shutil.copytree(fixture_root() / "rsa768", broken)
        (broken / "a1.txt").unlink()
        (broken / "a2.txt").unlink()
        with pytest.raises(DomainError):
            load_fixture(broken)


class TestVerification:
    def test_rsa768_passes_every_check(self):
        fx = load_fixture("rsa768")
        checks = verify_fixture(fx)
        assert checks, "no checks ran"
        assert all(ok for _, ok in checks), checks
        assert _passes(fx)
        labels = [label for label, _ in checks]
        assert any("a1 + a2" in label for label in labels)

    def test_n20000_passes_every_check(self):
        fx = load_fixture("n20000")
        assert _passes(fx)
        # one base only, so no complementary-pair check
        labels = [label for label, _ in verify_fixture(fx)]
        assert not any("a1 + a2" in label for label in labels)

    def test_tampered_base_is_caught(self, tmp_path):
        broken = tmp_path / "tampered"
        shutil.copytree(fixture_root() / "rsa768", broken)
        text = (broken / "a1.txt").read_text()
        for digit in "0123456789":
            if digit in text:
                swapped = str((int(digit) + 1) % 10)
                text = text.replace(digit, swapped, 1)
                break
        (broken / "a1.txt").write_text(text)
        fx = load_fixture(broken)
        assert not _passes(fx)
        failed = [label for label, ok in verify_fixture(fx) if not ok]
        assert any("1 mod n" in label or "reproduce" in label
                   for label in failed)

    def test_tampered_modulus_is_caught(self, tmp_path):
        broken = tmp_path / "tampered"
        shutil.copytree(fixture_root() / "n20000", broken)
        text = (broken / "n.txt").read_text().rstrip()
        last = text[-1]
        swapped = str((int(last) + 2) % 10)
        (broken / "n.txt").write_text(text[:-1] + swapped)
        fx = load_fixture(broken)
        checks = dict(verify_fixture(fx))
        assert checks["p * q == n"] is False

    def test_ten_bases_are_labelled_in_numeric_order(self, tmp_path):
        # a1..a9 are sound, only a10 is wrong: its checks must say a10
        ten = tmp_path / "ten"
        shutil.copytree(fixture_root() / "rsa768", ten)
        sound = [(ten / "a1.txt").read_text(), (ten / "a2.txt").read_text()]
        for i in range(3, 10):
            (ten / f"a{i}.txt").write_text(sound[(i - 1) % 2])
        (ten / "a10.txt").write_text("4\n")
        fx = load_fixture(ten)
        assert len(fx.bases) == 10
        assert fx.bases[9] == 4
        failed = [label for label, ok in verify_fixture(fx) if not ok]
        assert failed == ["a10**2 == 1 mod n",
                          "gcd(a10 -/+ 1, n) reproduce p and q"]

    def test_zero_modulus_rejected(self):
        with pytest.raises(DomainError):
            verify_fixture(SupplementaryFixture("zero", 0, 3, 5, (4,)))

    def test_zero_base_fails_its_checks(self):
        fx = SupplementaryFixture("zero-base", 15, 3, 5, (0,))
        failed = [label for label, ok in verify_fixture(fx) if not ok]
        assert failed == ["1 < a < n - 1", "a**2 == 1 mod n",
                          "gcd(a -/+ 1, n) reproduce p and q"]
