"""Orders of the non-abelian finite simple groups up to a cap (default 1e7).

The table is order-keyed; isomorphic groups of equal order share one entry
(PSL(2,4) = PSL(2,5) = Alt(5), PSL(2,9) = Alt(6), PSL(3,2) = PSL(2,7),
PSU(4,2) = PSp(4,3)).  The single order below the cap carrying two
distinct isomorphism classes is 20160: Alt(8) = PSL(4,2) versus PSL(3,4).
They are told apart by element orders: Alt(8) contains elements of order
15 (and 6) while PSL(3,4) has element orders {1,2,3,4,5,7} only.

Membership in the set of powers of simple orders is exact up to the cap;
a prime power is never such a power (simple orders have at least three
prime divisors), so prime powers are decided exactly at any size.
"""

from __future__ import annotations

from functools import lru_cache

TABLE_CAP = 10_000_000

_AMBIGUOUS_ORDER = 20160   # Alt(8) = PSL(4,2) vs PSL(3,4)


def _prime_powers(limit):
    return [q for q in range(2, limit + 1) if len(prime_factors(q)) == 1]


@lru_cache(maxsize=None)
def simple_order_table():
    """Map order -> list of group names, for non-abelian simple groups."""
    table = {}

    def add(order, name):
        if order <= TABLE_CAP:
            table.setdefault(order, [])
            if name not in table[order]:
                table[order].append(name)

    from math import factorial, gcd

    for n in range(5, 13):
        add(factorial(n) // 2, f"Alt({n})")
    for q in _prime_powers(300):
        if q < 4:
            continue
        o = q * (q * q - 1) // gcd(2, q - 1)
        add(o, f"PSL(2,{q})")
    for q in (2, 3, 4, 5, 7):
        o = q ** 3 * (q ** 3 - 1) * (q ** 2 - 1) // gcd(3, q - 1)
        add(o, f"PSL(3,{q})")
    add(6_065_280, "PSL(4,3)")
    add(9_999_360, "PSL(5,2)")
    for q in (3, 4, 5, 7, 8):
        o = q ** 3 * (q ** 2 - 1) * (q ** 3 + 1) // gcd(3, q + 1)
        add(o, f"PSU(3,{q})")
    add(25920, "PSp(4,3)")
    add(3_265_920, "PSU(4,3)")
    add(979_200, "PSp(4,4)")
    add(4_680_000, "PSp(4,5)")
    add(1_451_520, "PSp(6,2)")
    add(29120, "Sz(8)")
    add(4_245_696, "G2(3)")
    add(7920, "M11")
    add(95040, "M12")
    add(443_520, "M22")
    add(175_560, "J1")
    add(604_800, "J2")

    merged = {}
    for order, names in sorted(table.items()):
        canon = sorted(set(names))
        if order == _AMBIGUOUS_ORDER:
            merged[order] = ["Alt(8)", "PSL(3,4)"]
        elif len(canon) > 1:
            # same order twice below the cap means isomorphic coincidence
            # (PSL(2,4)=PSL(2,5)=Alt(5) etc.); keep one representative name
            merged[order] = canon[:1]
        else:
            merged[order] = canon
    return merged


def prime_factors(n):
    """The distinct prime divisors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def is_prime_power(n):
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
        p += 1
    return True


def prime_power_split(n):
    """(p, k) with n = p^k, or None."""
    if n < 2:
        return None
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            return (p, k) if n == 1 else None
        p += 1
    return (n, 1)


def _int_root(n, k):
    """Exact integer k-th root of n, or None."""
    if k == 1:
        return n
    r = round(n ** (1.0 / k))
    for cand in (r - 1, r, r + 1):
        if cand >= 2 and cand ** k == n:
            return cand
    return None


def power_of_simple_order(n):
    """True / False / None: is n a power of a non-abelian simple order?

    Prime powers are excluded exactly at any size.  Otherwise membership is
    decided against the table when every candidate root lies under the cap;
    a candidate root beyond the cap makes the answer None (unknown).
    """
    if n < 60:
        return False
    if is_prime_power(n):
        return False
    table = simple_order_table()
    unknown = False
    k = 1
    while 60 ** k <= n:
        r = _int_root(n, k)
        if r is not None:
            if r in table:
                return True
            if r > TABLE_CAP:
                unknown = True
        k += 1
    return None if unknown else False


def split_simple_power(n):
    """(simple order s, k, names) with n = s^k, or None."""
    table = simple_order_table()
    k = 1
    while 60 ** k <= n:
        r = _int_root(n, k)
        if r is not None and r in table:
            return r, k, table[r]
        k += 1
    return None
