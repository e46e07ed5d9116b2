//! Parser robustness: arbitrary input must produce a clean `ParseError`,
//! never a panic; and anything the printer emits must reparse.
//!
//! Inputs come from the fuzzer's seeded [`Rng`], so every case is
//! reproducible from its index.

use snslp_fuzz::Rng;
use snslp_ir::{parse_function_str, parse_module, CastKind, CmpPred};
use snslp_ir::{verify, FunctionBuilder, Param, ScalarType, Type};

const CASES: u64 = 2000;

/// A random char: mostly printable ASCII, some control chars, and any
/// Unicode scalar value.
fn any_char(rng: &mut Rng) -> char {
    match rng.below(4) {
        0 | 1 => char::from(b' ' + rng.below(95) as u8),
        2 => char::from(rng.below(32) as u8),
        _ => loop {
            if let Some(c) = char::from_u32(rng.below(0x11_0000) as u32) {
                break c;
            }
        },
    }
}

/// Arbitrary char soup never panics the lexer or parser.
#[test]
fn arbitrary_input_never_panics() {
    for index in 0..CASES {
        let mut rng = Rng::for_case(0x9A25E, index);
        let len = rng.below(201) as usize;
        let src: String = (0..len).map(|_| any_char(&mut rng)).collect();
        let _ = parse_module(&src);
    }
}

/// Arbitrary token-shaped soup never panics either.
#[test]
fn token_soup_never_panics() {
    const TOKENS: &[&str] = &[
        "func", "@f", "(", ")", "{", "}", "->", "void", "entry:", "%x", "=", "add", "load",
        "store", "i64", "f64x2", "ret", ",", "[", "]", "1.5", "-3", "phi", "cast", "sitofp",
    ];
    for index in 0..CASES {
        let mut rng = Rng::for_case(0x7E5, index);
        let len = rng.below(40) as usize;
        let toks: Vec<&str> = (0..len).map(|_| *rng.pick(TOKENS)).collect();
        let _ = parse_module(&toks.join(" "));
    }
}

/// Printer output always reparses (round-trip totality for a family of
/// generated functions covering every instruction former).
#[test]
fn generated_functions_round_trip() {
    for index in 0..CASES {
        let mut rng = Rng::for_case(0x4007, index);
        let mut fb = FunctionBuilder::new(
            "gen",
            vec![
                Param::noalias_ptr("p"),
                Param::new("n", Type::scalar(ScalarType::I64)),
            ],
            Type::Void,
        );
        let p = fb.func().param(0);
        let mut vals = vec![fb.load(ScalarType::F32, p)];
        for i in 0..1 + rng.below(19) as i64 {
            let last = *vals.last().unwrap();
            let v = match rng.below(8) {
                0 => fb.add(last, last),
                1 => fb.sub(last, last),
                2 => fb.mul(last, last),
                3 => fb.neg(last),
                4 => {
                    let q = fb.ptradd_const(p, 4 * (i + 1));
                    fb.load(ScalarType::F32, q)
                }
                5 => {
                    let s = fb.splat(last, 4);
                    fb.extract(s, 3)
                }
                6 => {
                    let c = fb.cmp(CmpPred::Lt, last, last);
                    fb.select(c, last, last)
                }
                _ => fb.cast(CastKind::Fptosi, ScalarType::I32, last),
            };
            // Keep types uniform: convert back to f32 after a cast.
            let v = if fb.func().ty(v) == Type::scalar(ScalarType::I32) {
                fb.cast(CastKind::Sitofp, ScalarType::F32, v)
            } else {
                v
            };
            vals.push(v);
        }
        let last = *vals.last().unwrap();
        fb.store(p, last);
        fb.ret(None);
        let f = fb.finish();
        verify(&f).unwrap();
        let text = f.to_string();
        let f2 = parse_function_str(&text).unwrap_or_else(|e| panic!("case {index}: {e}\n{text}"));
        assert_eq!(f2.num_linked_insts(), f.num_linked_insts(), "case {index}");
        verify(&f2).unwrap();
    }
}
