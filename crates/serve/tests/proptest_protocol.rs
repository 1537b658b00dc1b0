//! Hostile request lines: the protocol decoder faces every byte a
//! client can send, so [`parse_request`] must answer each one with a
//! request or a structured [`RequestError`], never a panic.
//!
//! Inputs are arbitrary strings plus truncations and byte flips of
//! rendered valid requests, oversized numbers and identifiers, and
//! nesting past the JSON parser's depth bound. A second property pins
//! the canonical form: a valid request re-renders to the line it was
//! parsed from, and an accepted hostile line parses back to the same
//! request once re-rendered. A timing test checks that parsing stays
//! linear in the line length for each hostile shape. The `bytes_hex`
//! decoder and the JSON string scanner are checked exhaustively at
//! every digit value and every delimiter offset of a word.

use fetch_core::{Pipeline, KNOWN_LAYERS};
use fetch_serve::json::Json;
use fetch_serve::protocol::{encode_hex, parse_request, AnalyzeInput, Request, RequestError};
use fetch_serve::ErrorCode;
use proptest::collection::vec;
use proptest::prelude::*;
use std::path::PathBuf;

/// JSON-significant characters, escapes, control characters, DEL,
/// multi-byte UTF-8 and plain ASCII.
const CHARS: &[char] = &[
    'a', 'Z', '0', '9', 'f', 'x', 'e', 'u', '/', '.', '-', '+', '_', ' ', '"', '\\', '\n', '\t',
    '\u{1}', '\u{7f}', 'é', '😀', '{', '}', '[', ']', ':', ',',
];

fn arb_text(len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    vec(0..CHARS.len(), len).prop_map(|picks| picks.into_iter().map(|i| CHARS[i]).collect())
}

/// Every request shape, over pipelines of distinct registry layers.
fn arb_request() -> impl Strategy<Value = Request> {
    let input = prop_oneof![
        arb_text(0..24).prop_map(|s| AnalyzeInput::Path(PathBuf::from(s))),
        vec(any::<u8>(), 0..64).prop_map(AnalyzeInput::Bytes),
    ];
    (0u8..7, input, vec(any::<u8>(), 1..6), any::<u64>()).prop_map(|(kind, input, picks, fp)| {
        let mut specs = Vec::new();
        for p in picks {
            let spec = KNOWN_LAYERS[p as usize % KNOWN_LAYERS.len()].1;
            if !specs.contains(&spec) {
                specs.push(spec);
            }
        }
        let pipeline = Pipeline::new(specs);
        match kind {
            0 => Request::Analyze { input, pipeline },
            1 => Request::Reanalyze {
                prev_fingerprint: fp,
                input,
                pipeline,
            },
            2 => Request::Query {
                fingerprint: fp,
                pipeline_id: pipeline.id(),
            },
            3 => Request::Stats,
            4 => Request::Metrics,
            5 => Request::Subscribe,
            _ => Request::Shutdown,
        }
    })
}

/// Numbers and identifiers too large for their field, and arrays and
/// objects nested up to far past the parser's depth bound.
fn arb_oversized_or_nested() -> impl Strategy<Value = String> {
    (0u8..10, 1usize..2000, any::<u64>()).prop_map(|(shape, n, seed)| {
        let d: String = (0..n % 400 + 1)
            .map(|i| char::from(b'0' + ((seed >> (i % 60)) as u8 ^ i as u8) % 10))
            .collect();
        match shape {
            0 => format!(r#"{{"cmd":"query","fingerprint":"0x{d}"}}"#),
            1 => format!(r#"{{"cmd":"reanalyze","prev_fingerprint":"{d}","path":"x"}}"#),
            2 => format!(r#"{{"cmd":{d}}}"#),
            3 => format!(r#"{{"cmd":"stats","n":1e{d}}}"#),
            4 => format!(r#"{{"cmd":"analyze","bytes_hex":"{d}"}}"#),
            5 => format!(r#"{{"cmd":"query","fingerprint":-{d}.{d}e-{d}}}"#),
            6 => "[".repeat(n) + &"]".repeat(n),
            7 => format!(r#"{{"cmd":{}1{}}}"#, r#"{"a":"#.repeat(n), "}".repeat(n)),
            8 => "[{".repeat(n),
            _ => format!(
                r#"{{"cmd":"analyze","path":{}"x"{}}}"#,
                "[".repeat(n),
                "]".repeat(n)
            ),
        }
    })
}

fn arb_hostile_line() -> impl Strategy<Value = String> {
    prop_oneof![
        arb_text(0..200),
        vec(any::<u32>(), 0..64).prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect()),
        (arb_request(), any::<usize>()).prop_map(|(req, cut)| {
            let line = req.to_line();
            let mut at = cut % (line.len() + 1);
            while !line.is_char_boundary(at) {
                at -= 1;
            }
            line[..at].to_string()
        }),
        (arb_request(), vec((any::<usize>(), 1u8..=255), 1..4)).prop_map(|(req, flips)| {
            let mut bytes = req.to_line().into_bytes();
            for (at, mask) in flips {
                let i = at % bytes.len();
                bytes[i] ^= mask;
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }),
        arb_oversized_or_nested(),
    ]
}

/// The decoder's contract on one line: a request, or a `bad_request` /
/// `too_large` error that says what was wrong.
fn check_line(line: &str) -> Result<Request, RequestError> {
    let parsed = parse_request(line);
    if let Err(e) = &parsed {
        assert!(
            matches!(e.code, ErrorCode::BadRequest | ErrorCode::TooLarge),
            "{line:?}: unexpected code {:?}",
            e.code
        );
        assert!(!e.message.is_empty(), "{line:?}: empty error message");
    }
    parsed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every hostile line gets an answer, never a panic; an accepted one
    /// is a request whose rendering parses back to itself.
    #[test]
    fn hostile_lines_never_panic(line in arb_hostile_line()) {
        if let Ok(req) = check_line(&line) {
            prop_assert_eq!(parse_request(&req.to_line()), Ok(req), "{:?}", line);
        }
    }

    /// Any image survives `encode_hex` and the `bytes_hex` decoder, in
    /// either digit case.
    #[test]
    fn bytes_hex_round_trips(bytes in vec(any::<u8>(), 0..300)) {
        let hex = encode_hex(&bytes);
        prop_assert_eq!(decoded(&hex).as_ref(), Some(&bytes));
        prop_assert_eq!(decoded(&hex.to_uppercase()).as_ref(), Some(&bytes));
    }

    /// A valid request's line parses back to it and re-renders to the
    /// same bytes.
    #[test]
    fn valid_requests_round_trip_byte_identically(req in arb_request()) {
        let line = req.to_line();
        let parsed = check_line(&line).expect("a rendered request parses");
        prop_assert_eq!(&parsed, &req);
        prop_assert_eq!(parsed.to_line(), line);
    }
}

/// One hostile request line of about `target` bytes: `unit` repeated
/// between `head` and `tail`.
fn scaled_line(head: &str, unit: &str, sep: &str, tail: &str, target: usize) -> String {
    let n = target / (unit.len() + sep.len()) + 1;
    let mut line = String::from(head);
    for i in 0..n {
        if i > 0 {
            line.push_str(sep);
        }
        line.push_str(&unit.replace('#', &i.to_string()));
    }
    line + tail
}

/// Wall time to parse `line`, per byte. The line must parse: an early
/// error would time a prefix, not the whole line.
fn ns_per_byte(line: &str) -> f64 {
    let t0 = std::time::Instant::now();
    let parsed = parse_request(line);
    let ns = t0.elapsed().as_nanos() as f64;
    assert!(parsed.is_ok(), "{:?}", parsed.map(|_| ()));
    ns / line.len() as f64
}

/// Request parsing is linear in the line for every hostile shape: the
/// best-of-5 per-byte time of a ~1 MiB line is at most 4x that of a
/// ~32 KiB one (linear parsing gives about 1x; a quadratic step about
/// 32x).
#[test]
fn request_parsing_scales_linearly() {
    // Arrays nested just inside the JSON parser's 64-level bound (the
    // root object is level 0, its field value level 1).
    let depth = 62;
    let nested = "[".repeat(depth) + "0" + &"]".repeat(depth);
    let shapes: [(&str, &str, &str, &str, &str); 5] = [
        (
            "escapes",
            r#"{"cmd":"analyze","path":""#,
            r#"\"\\\u0041x"#,
            "",
            r#""}"#,
        ),
        (
            "bytes_hex",
            r#"{"cmd":"analyze","bytes_hex":""#,
            "c3",
            "",
            r#""}"#,
        ),
        ("many_keys", r#"{"cmd":"stats","#, r#""k#":0"#, ",", "}"),
        ("nested", r#"{"cmd":"stats","a":["#, &nested, ",", "]}"),
        ("digits", r#"{"cmd":"stats","n":0."#, "1234567890", "", "}"),
    ];
    for (name, head, unit, sep, tail) in shapes {
        let small = scaled_line(head, unit, sep, tail, 32 << 10);
        let large = scaled_line(head, unit, sep, tail, 1 << 20);
        assert!(large.len() < fetch_serve::protocol::MAX_LINE_BYTES);
        // Interleave the sizes so load on the host hits both alike.
        let (mut small_ns, mut large_ns) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..5 {
            small_ns = small_ns.min(ns_per_byte(&small));
            large_ns = large_ns.min(ns_per_byte(&large));
        }
        assert!(
            large_ns <= 4.0 * small_ns,
            "{name}: {large_ns:.2} ns/byte at {} bytes vs {small_ns:.2} at {}",
            large.len(),
            small.len()
        );
    }
}

/// The image an analyze line with `"bytes_hex": hex` carries, or `None`
/// when the decoder rejects it. Every char of `hex` is sent `\u`-escaped,
/// so any char can stand where a digit goes.
fn decoded(hex: &str) -> Option<Vec<u8>> {
    let escaped: String = hex.encode_utf16().map(|u| format!("\\u{u:04x}")).collect();
    let line = format!(r#"{{"cmd":"analyze","bytes_hex":"{escaped}"}}"#);
    match check_line(&line) {
        Ok(Request::Analyze {
            input: AnalyzeInput::Bytes(bytes),
            ..
        }) => Some(bytes),
        Ok(other) => panic!("{line}: parsed as {other:?}"),
        Err(e) => {
            assert!(e.message.contains("not valid hex"), "{line}: {e:?}");
            None
        }
    }
}

#[test]
fn bytes_hex_decodes_each_char_in_each_digit_position() {
    for c in (0u32..0x100).filter_map(char::from_u32) {
        let value = c.to_digit(16).map(|v| v as u8);
        assert_eq!(
            decoded(&format!("{c}0")),
            value.map(|v| vec![v << 4]),
            "{c:?} high"
        );
        assert_eq!(
            decoded(&format!("0{c}")),
            value.map(|v| vec![v]),
            "{c:?} low"
        );
        assert_eq!(
            decoded(&format!("f{c}")),
            value.map(|v| vec![0xf0 | v]),
            "{c:?} low"
        );
        if !c.is_ascii() {
            // Two UTF-8 bytes: the lead byte high and the continuation
            // byte low, then the other way round.
            assert_eq!(decoded(&c.to_string()), None, "{c:?}");
            assert_eq!(decoded(&format!("0{c}0")), None, "{c:?}");
        }
    }
}

#[test]
fn bytes_hex_rejects_odd_lengths() {
    for n in [1, 3, 5, 7, 9, 15, 17, 33] {
        assert_eq!(decoded(&"a".repeat(n)), None, "{n} digits");
    }
    assert_eq!(decoded(""), Some(vec![]));
    assert_eq!(decoded("7f454c46"), Some(vec![0x7f, 0x45, 0x4c, 0x46]));
}

#[test]
fn string_scanner_stops_at_each_delimiter_at_each_offset() {
    // Plain runs of 0–16 bytes, in ASCII and after multi-byte UTF-8,
    // so a delimiter falls at every offset of the first words.
    let prefixes = (0..=16).flat_map(|n| {
        [
            "a".repeat(n),
            "é".repeat(n / 2) + &"a".repeat(n % 2),
            "€".repeat(n / 3) + &"a".repeat(n % 3),
            "😀".repeat(n / 4) + &"a".repeat(n % 4),
        ]
    });
    for run in prefixes {
        let value = |doc: &str| {
            Json::parse(doc).map(|j| j.get("k").and_then(Json::as_str).map(str::to_owned))
        };
        // A quote ends the run; a later string must not leak into it.
        let quoted = format!(r#"{{"k":"{run}","z":"q\"w"}}"#);
        assert_eq!(value(&quoted), Ok(Some(run.clone())), "{quoted:?}");
        // A backslash starts an escape.
        let escaped = format!(r#"{{"k":"{run}\n\\b"}}"#);
        assert_eq!(
            value(&escaped),
            Ok(Some(format!("{run}\n\\b"))),
            "{escaped:?}"
        );
        // A raw control byte is not allowed in a string.
        for control in ['\u{0}', '\u{1}', '\n', '\u{1f}'] {
            let doc = format!(r#"{{"k":"{run}{control}b"}}"#);
            assert!(value(&doc).is_err(), "{doc:?}");
        }
        // Bytes just above the delimiters are plain.
        let plain = format!("{{\"k\":\"{run} !#[]\u{7f}\"}}");
        assert_eq!(
            value(&plain),
            Ok(Some(format!("{run} !#[]\u{7f}"))),
            "{plain:?}"
        );
    }
}
