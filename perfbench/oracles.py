"""Answer checks that share no code with the package under test.

Every function takes plain data (coefficient tuples, integers, dicts) and
returns a list of failure strings; an empty list means the answer holds.
Nothing here imports polyorbit.
"""

from __future__ import annotations


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def primes_through(bound: int) -> list[int]:
    return [n for n in range(2, bound + 1) if is_prime(n)]


def _step(coeffs: tuple[int, ...], x: int, p: int) -> int:
    """coeffs is constant term first, as the library stores it."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def check_certificate(coeffs, r: int, p: int, m_p, cycle) -> list[str]:
    """Replay one residue certificate by walking the orbit again.

    hit: the m_p-th iterate is 0 mod p and no earlier one is.
    refuted: the tail leads into the cycle, the cycle closes under u, and
    no iterate up to the closing one is 0 mod p, so none ever is.
    """
    x = r % p
    if m_p is not None:
        if not 1 <= m_p <= p:
            return [f"p={p}: m_p={m_p} outside [1, p]"]
        for n in range(1, m_p + 1):
            x = _step(coeffs, x, p)
            if x == 0 and n < m_p:
                return [f"p={p}: iterate {n} is already 0, before m_p={m_p}"]
        return [] if x == 0 else [f"p={p}: iterate {m_p} is {x}, not 0"]
    if cycle is None:
        return [f"p={p}: certificate has neither m_p nor a cycle"]
    tail, values = cycle
    if not values:
        return [f"p={p}: empty cycle"]
    walk = [x]
    for _ in range(tail + len(values)):
        walk.append(_step(coeffs, walk[-1], p))
    if 0 in walk[1:]:  # walk[0] is the start r, not an iterate
        return [f"p={p}: an iterate in the refutation walk is 0"]
    if tuple(walk[tail: tail + len(values)]) != tuple(values):
        return [f"p={p}: tail of {tail} does not lead into the stated cycle"]
    if walk[tail + len(values)] != values[0]:
        return [f"p={p}: stated cycle does not close"]
    return []


def check_local_report(coeffs, r, excluded, bound, certs, refuted_at,
                       expect_member: bool) -> list[str]:
    """certs is a list of (p, m_p, cycle). The primes must be exactly those
    up to bound outside excluded, ascending, stopping at the first
    refutation; catalog members must never be refuted."""
    failures = []
    expected = [p for p in primes_through(bound) if p not in excluded]
    got = [p for p, _, _ in certs]
    if got != expected[: len(got)]:
        failures.append("certified primes are not the ascending primes outside A")
    first_refuted = next((p for p, m_p, _ in certs if m_p is None), None)
    if refuted_at != first_refuted:
        failures.append(f"refuted_at={refuted_at} but first refuting prime "
                        f"is {first_refuted}")
    if first_refuted is None and got != expected:
        failures.append("consistent report does not cover every prime")
    if expect_member and refuted_at is not None:
        failures.append(f"catalog member refuted at p={refuted_at}")
    for p, m_p, cycle in certs:
        failures.extend(check_certificate(coeffs, r, p, m_p, cycle))
    return failures


def _order(a: int, p: int) -> int:
    """Multiplicative order of a unit mod p, from the divisors of p - 1."""
    n = p - 1
    order = n
    q = 2
    rest = n
    while q * q <= rest:
        if rest % q == 0:
            while rest % q == 0:
                rest //= q
            while order % q == 0 and pow(a, order // q, p) == 1:
                order //= q
        q += 1
    if rest > 1 and pow(a, order // rest, p) == 1:
        order //= rest
    return order


def lemma1_expected(alpha: int, beta: int, gamma: int, bound: int) -> list[int]:
    """Primes p <= bound not dividing alpha*beta*gamma for which
    gamma*alpha^n = beta (mod p) has no solution n >= 1.

    The units mod p form a cyclic group, so beta/gamma is a power of alpha
    exactly when it lies in the unique subgroup of order ord(alpha), that
    is when (beta/gamma)^ord(alpha) = 1. Powers with n >= 1 cover the whole
    subgroup, since alpha^ord(alpha) = 1 = alpha^0.
    """
    product = alpha * beta * gamma
    out = []
    for p in primes_through(bound):
        if product % p == 0:
            continue
        target = beta * pow(gamma, -1, p) % p
        if pow(target, _order(alpha % p, p), p) != 1:
            out.append(p)
    return out


def is_power_of(base: int, value: int) -> bool:
    """value == base**m for some m >= 0 (|base| >= 2)."""
    m = 1
    while abs(m) < abs(value):
        m *= base
    return m == value


def reaches_zero(coeffs, r: int, steps: int = 64) -> bool:
    """Whether the exact integer orbit hits 0 within steps iterations."""
    x = r
    for _ in range(steps):
        acc = 0
        for c in reversed(coeffs):
            acc = acc * x + c
        x = acc
        if x == 0:
            return True
    return False


def check_box_report(degree: int, coeff_bound: int, report: dict) -> list[str]:
    """A verify_theorem report must cover the whole box without findings."""
    failures = []
    cardinality = (2 * coeff_bound + 1) ** (degree + 1) - 1
    if report["candidates_checked"] != cardinality:
        failures.append(f"checked {report['candidates_checked']} of "
                        f"{cardinality} candidates")
    if sum(report["totals"].values()) != cardinality:
        failures.append("verdict totals do not add up to the box size")
    if report["discrepancies"]:
        failures.append(f"{len(report['discrepancies'])} discrepancies, first: "
                        f"{report['discrepancies'][0]}")
    return failures


def trap_step(x: int, y: int, p: int) -> tuple[int, int]:
    x2y = x * x * y % p
    return x2y, (x2y + x * y * y) % p


def check_trap_hits(p: int, hits: dict, sample) -> list[str]:
    """Every point must be hit within p steps; the sampled points are
    replayed to their stated first hit."""
    if len(hits) != p * p:
        return [f"p={p}: {len(hits)} points reported, expected {p * p}"]
    late = [pt for pt, n in hits.items() if not 1 <= n <= p]
    if late:
        return [f"p={p}: {len(late)} points not hit within p steps, e.g. {late[0]}"]
    for x0, y0 in sample:
        n = hits[(x0, y0)]
        x, y = x0, y0
        for step in range(1, n + 1):
            x, y = trap_step(x, y, p)
            if (x, y) == (0, 0) and step < n:
                return [f"p={p}: ({x0},{y0}) reaches (0,0) at {step}, not {n}"]
        if (x, y) != (0, 0):
            return [f"p={p}: ({x0},{y0}) is not (0,0) after {n} steps"]
    return []


def check_trap_fixed(p: int, fixed: list) -> list[str]:
    """The only fixed point is (0,0), found by scanning the plane again."""
    own = [(x, y) for x in range(p) for y in range(p) if trap_step(x, y, p) == (x, y)]
    failures = []
    if own != [(0, 0)]:
        failures.append(f"p={p}: independent scan found fixed points {own}")
    if list(fixed) != own:
        failures.append(f"p={p}: reported fixed points {fixed}, expected {own}")
    return failures


def _schema_type_ok(value, types) -> bool:
    names = {
        "object": dict, "array": list, "string": str, "boolean": bool,
        "integer": int, "number": (int, float), "null": type(None),
    }
    if isinstance(types, str):
        types = [types]
    for t in types:
        if t in ("integer", "number") and isinstance(value, bool):
            continue
        if isinstance(value, names[t]):
            return True
    return False


def check_against_schema(doc, schema: dict, where: str = "$") -> list[str]:
    """The subset of JSON Schema the report schema uses: type, enum,
    required, properties, additionalProperties and items."""
    failures = []
    if "type" in schema and not _schema_type_ok(doc, schema["type"]):
        return [f"{where}: {type(doc).__name__} is not {schema['type']}"]
    if "enum" in schema and doc not in schema["enum"]:
        failures.append(f"{where}: {doc!r} not in enum")
    if isinstance(doc, dict):
        for key in schema.get("required", []):
            if key not in doc:
                failures.append(f"{where}: missing key {key!r}")
        props = schema.get("properties", {})
        for key, value in doc.items():
            if key in props:
                failures.extend(check_against_schema(value, props[key], f"{where}.{key}"))
            elif schema.get("additionalProperties") is False:
                failures.append(f"{where}: unexpected key {key!r}")
    if isinstance(doc, list) and "items" in schema:
        for i, item in enumerate(doc):
            failures.extend(check_against_schema(item, schema["items"], f"{where}[{i}]"))
    return failures


def lookup(doc, path: str):
    """Follow a dotted path; integer parts index lists (negative allowed)
    and "#" takes the length of the value reached so far."""
    value = doc
    for part in path.split("."):
        if part == "#":
            value = len(value)
        elif isinstance(value, list):
            value = value[int(part)]
        else:
            value = value[part]
    return value
