//! Properties of `dm_obs::json`, the workspace's one JSON codec: the parser
//! is total on arbitrary text, and the f64 dialect the wire and the model
//! registry share round-trips every value's bits.

use dm_obs::json::{fmt_f64, json_f64, json_usize, parse, Json};
use proptest::prelude::*;

/// Mostly JSON syntax, so inputs get deep into the parser; sometimes any
/// Unicode scalar value.
fn json_char() -> impl Strategy<Value = char> {
    let syntax: Vec<char> = "{}[]\":,\\ u0e.-+tfnl1".chars().collect();
    prop_oneof![
        3 => (0..syntax.len()).prop_map(move |i| syntax[i]),
        1 => (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}')),
    ]
}

/// Any bit pattern, plus the values a uniform draw of bits rarely hits.
fn any_f64() -> impl Strategy<Value = f64> {
    let specials = [0.0, -0.0, f64::MIN_POSITIVE, f64::MAX, f64::INFINITY, f64::NEG_INFINITY];
    prop_oneof![
        4 => (0u64..=u64::MAX).prop_map(f64::from_bits),
        1 => (0u64..(1 << 52), 0u64..2).prop_map(|(m, sign)| f64::from_bits((sign << 63) | m)),
        1 => (0..specials.len()).prop_map(move |i| specials[i]),
        1 => Just(f64::NAN),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_never_panics(chars in proptest::collection::vec(json_char(), 0..64)) {
        let text: String = chars.into_iter().collect();
        let _ = parse(&text);
    }

    #[test]
    fn f64_dialect_round_trips_bits(v in any_f64()) {
        let back = json_f64(&parse(&fmt_f64(v)).expect("fmt_f64 writes valid JSON")).unwrap();
        if v.is_nan() {
            prop_assert!(back.is_nan());
        } else {
            prop_assert_eq!(back.to_bits(), v.to_bits(), "{}", fmt_f64(v));
        }
    }

    #[test]
    fn json_usize_takes_exact_integers_only(n in 0u64..=(1 << 53)) {
        prop_assert_eq!(json_usize(&parse(&n.to_string()).unwrap(), "n"), Ok(n as usize));
        prop_assert!(json_usize(&Json::Num(-(n as f64) - 1.0), "n").is_err());
        prop_assert!(json_usize(&Json::Num((n % (1 << 52)) as f64 + 0.5), "n").is_err());
        prop_assert!(json_usize(&Json::Str(n.to_string()), "n").is_err());
    }
}

#[test]
fn json_usize_stops_at_two_to_the_53() {
    let limit = 1u64 << 53;
    assert_eq!(json_usize(&Json::Num(limit as f64), "n"), Ok(limit as usize));
    assert!(json_usize(&Json::Num((limit + 2) as f64), "n").is_err());
}
