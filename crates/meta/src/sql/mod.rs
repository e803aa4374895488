//! SQL front-end: lexer, AST, parser and executor.

pub mod ast;
pub(crate) mod exec;
pub mod lexer;
pub mod parser;
#[cfg(test)]
mod planner_tests;

pub use ast::Statement;
pub use parser::{parse, parse_script};
