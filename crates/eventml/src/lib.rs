//! EventML-style constructive specifications, compiled to runnable programs.
//!
//! The paper's methodology (Fig. 2) revolves around EventML, an ML-like
//! event-based language: one source artifact — the *constructive
//! specification* — is compiled both to a **Logic of Events** specification
//! for formal reasoning and to a **General Process Model** program that
//! actually runs. This crate embeds that architecture in Rust:
//!
//! * [`ast`] — the combinator AST ([`ClassExpr`], [`Spec`]): base classes,
//!   `State`, simultaneous composition `o`, parallel `||`, `Once`;
//! * [`denote`] — the LoE reading: what a class produces at each event of a
//!   trace, defined without any process state (arrow *a* of Fig. 2);
//! * [`compile`] — the GPM program: an interpreted process evaluating the
//!   combinator tree per message (arrow *b*);
//! * [`optimize`] — the program optimizer: fusion + common-subexpression
//!   elimination, the paper's ≥2× transformation (arrow *e*);
//! * [`bisim`] — executable versions of the two proof obligations: GPM ⊑
//!   LoE (arrow *c*) and optimized ∼ original;
//! * [`process`] — the [`Process`] trait every runnable node implements;
//! * [`value`] — the untyped value universe and message format;
//! * [`codec`] — the binary wire format and length-prefixed framing every
//!   byte-crossing transport shares (TCP links, state-transfer batches);
//! * [`clk`] — the paper's running example, Lamport clocks (Fig. 3).
//!
//! # Quick start
//!
//! ```
//! use shadowdb_eventml::{clk, optimize, InterpretedProcess, Value};
//! use shadowdb_eventml::bisim::check_bisimilar;
//! use shadowdb_loe::Loc;
//!
//! let spec = clk::clk_spec(clk::ring_handle(3));
//! let mut interpreted = InterpretedProcess::compile_spec(&spec);
//! let mut optimized = optimize::optimize_spec(&spec);
//! let msgs = vec![clk::clk_msg(Value::str("hello"), 0)];
//! check_bisimilar(&mut interpreted, &mut optimized, Loc::new(0), &msgs)
//!     .expect("optimizer must preserve behaviour");
//! ```

pub mod ast;
pub mod bisim;
pub mod clk;
pub mod codec;
pub mod compile;
pub mod denote;
pub mod fxhash;
pub mod optimize;
pub mod patterns;
pub mod process;
pub mod symbol;
pub mod value;

pub use ast::{ClassExpr, HandlerFn, Spec, UpdateFn};
pub use codec::{DecodeError, FrameEncoder, FrameReader};
pub use compile::InterpretedProcess;
pub use fxhash::{fxhash, FxBuildHasher, FxHashMap, FxHasher};
pub use optimize::FusedProcess;
pub use process::{fingerprint, Ctx, FnProcess, Halt, Process};
pub use symbol::Symbol;
pub use value::{as_send_value, send_value, Header, Msg, SendInstr, SharedStr, Value};
