//! String pattern strategies: `"[a-z][a-z0-9_]{0,8}"` style generators.
//!
//! Supports the regex subset the workspace's tests use: literal
//! characters, `\`-escapes, `[...]` character classes with ranges, and the
//! quantifiers `{n}`, `{n,m}`, `?`, `*`, `+` (the unbounded ones are
//! capped at a small repeat count, which is what a *generator* wants).

use rand::Rng;

use crate::test_runner::TestRng;

/// Repeat cap for `*` and `+`.
const UNBOUNDED_CAP: usize = 8;

#[derive(Debug, Clone)]
enum Atom {
    Lit(char),
    /// Inclusive character ranges; single chars are `(c, c)`.
    Class(Vec<(char, char)>),
}

#[derive(Debug, Clone)]
struct Piece {
    atom: Atom,
    min: usize,
    max: usize,
}

/// Generates one string matching `pattern`.
///
/// # Panics
///
/// Panics on malformed patterns or regex features outside the supported
/// subset (alternation, groups, anchors, negated classes).
pub fn generate(pattern: &str, rng: &mut TestRng) -> String {
    let pieces = parse(pattern);
    let mut out = String::new();
    for piece in &pieces {
        let n = rng.gen_range(piece.min..=piece.max);
        for _ in 0..n {
            out.push(gen_atom(&piece.atom, rng));
        }
    }
    out
}

fn gen_atom(atom: &Atom, rng: &mut TestRng) -> char {
    match atom {
        Atom::Lit(c) => *c,
        Atom::Class(ranges) => {
            let total: u32 = ranges
                .iter()
                .map(|(lo, hi)| *hi as u32 - *lo as u32 + 1)
                .sum();
            let mut idx = rng.gen_range(0..total);
            for (lo, hi) in ranges {
                let len = *hi as u32 - *lo as u32 + 1;
                if idx < len {
                    return char::from_u32(*lo as u32 + idx)
                        .expect("class range stays within valid chars");
                }
                idx -= len;
            }
            unreachable!("index within total class size")
        }
    }
}

fn parse(pattern: &str) -> Vec<Piece> {
    let chars: Vec<char> = pattern.chars().collect();
    let mut pieces = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let atom = match chars[i] {
            '[' => {
                let (class, next) = parse_class(&chars, i + 1, pattern);
                i = next;
                class
            }
            '\\' => {
                i += 1;
                let c = *chars
                    .get(i)
                    .unwrap_or_else(|| panic!("dangling escape in pattern `{pattern}`"));
                i += 1;
                Atom::Lit(c)
            }
            '(' | ')' | '|' | '^' | '$' | '.' => {
                panic!(
                    "unsupported regex feature `{}` in pattern `{pattern}`",
                    chars[i]
                )
            }
            c => {
                i += 1;
                Atom::Lit(c)
            }
        };
        let (min, max, next) = parse_quantifier(&chars, i, pattern);
        i = next;
        pieces.push(Piece { atom, min, max });
    }
    pieces
}

fn parse_class(chars: &[char], mut i: usize, pattern: &str) -> (Atom, usize) {
    let mut ranges = Vec::new();
    assert!(
        chars.get(i) != Some(&'^'),
        "negated classes unsupported in pattern `{pattern}`"
    );
    while i < chars.len() && chars[i] != ']' {
        let lo = if chars[i] == '\\' {
            i += 1;
            *chars
                .get(i)
                .unwrap_or_else(|| panic!("dangling escape in pattern `{pattern}`"))
        } else {
            chars[i]
        };
        i += 1;
        if chars.get(i) == Some(&'-') && chars.get(i + 1).is_some_and(|c| *c != ']') {
            let hi = chars[i + 1];
            assert!(
                lo <= hi,
                "inverted class range `{lo}-{hi}` in pattern `{pattern}`"
            );
            ranges.push((lo, hi));
            i += 2;
        } else {
            ranges.push((lo, lo));
        }
    }
    assert!(
        chars.get(i) == Some(&']'),
        "unterminated class in pattern `{pattern}`"
    );
    assert!(!ranges.is_empty(), "empty class in pattern `{pattern}`");
    (Atom::Class(ranges), i + 1)
}

fn parse_quantifier(chars: &[char], i: usize, pattern: &str) -> (usize, usize, usize) {
    match chars.get(i) {
        Some('?') => (0, 1, i + 1),
        Some('*') => (0, UNBOUNDED_CAP, i + 1),
        Some('+') => (1, UNBOUNDED_CAP, i + 1),
        Some('{') => {
            let close = chars[i..]
                .iter()
                .position(|c| *c == '}')
                .unwrap_or_else(|| panic!("unterminated quantifier in pattern `{pattern}`"))
                + i;
            let body: String = chars[i + 1..close].iter().collect();
            let (min, max) = match body.split_once(',') {
                Some((lo, hi)) => (
                    lo.trim().parse().unwrap_or_else(|_| bad_quant(pattern)),
                    hi.trim().parse().unwrap_or_else(|_| bad_quant(pattern)),
                ),
                None => {
                    let n = body.trim().parse().unwrap_or_else(|_| bad_quant(pattern));
                    (n, n)
                }
            };
            assert!(min <= max, "inverted quantifier in pattern `{pattern}`");
            (min, max, close + 1)
        }
        _ => (1, 1, i),
    }
}

fn bad_quant(pattern: &str) -> usize {
    panic!("malformed quantifier in pattern `{pattern}`")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> TestRng {
        TestRng::seed_from_u64(11)
    }

    #[test]
    fn identifier_pattern() {
        let mut r = rng();
        for _ in 0..200 {
            let s = generate("[a-z][a-z0-9_]{0,8}", &mut r);
            assert!((1..=9).contains(&s.len()), "bad len: {s:?}");
            let mut cs = s.chars();
            assert!(cs.next().unwrap().is_ascii_lowercase());
            assert!(cs.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'));
        }
    }

    #[test]
    fn literals_and_escapes() {
        let mut r = rng();
        assert_eq!(generate("abc", &mut r), "abc");
        assert_eq!(generate(r"a\[b\]", &mut r), "a[b]");
    }

    #[test]
    fn quantifiers() {
        let mut r = rng();
        for _ in 0..100 {
            let s = generate("x{2,4}", &mut r);
            assert!((2..=4).contains(&s.len()));
            assert!(s.chars().all(|c| c == 'x'));
            let t = generate("y?z+", &mut r);
            assert!(!t.is_empty() && t.len() <= 1 + UNBOUNDED_CAP);
        }
    }

    #[test]
    fn class_hits_all_members() {
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            seen.extend(generate("[ab_0-1]", &mut r).chars());
        }
        assert_eq!(seen, ['a', 'b', '_', '0', '1'].into_iter().collect());
    }
}
