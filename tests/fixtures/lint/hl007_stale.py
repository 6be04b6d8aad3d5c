"""HL007 fixture: stale and typo'd suppressions."""

x = 1.0  # harplint: disable=HL003 -- the compare this excused is long gone
y = 2  # harplint: disable=HL099
z = 3  # harplint: disable=all -- 'all' is not a rule code
