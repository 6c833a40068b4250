//! Violation fixtures for the lints that replaced simlint's D001, D002,
//! P001 and C002. Each module is one rule's fixture; every line marked as a
//! violation must draw a clippy error.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod c002_violation;
pub mod d001_violation;
pub mod d002_violation;
pub mod p001_violation;
