//! Units of the simulated clock, in milliseconds. Every crate of the
//! workspace depends on this one, so this is their one home.

/// Milliseconds per minute.
pub const MINUTE_MS: u64 = 60 * 1_000;
/// Milliseconds per hour.
pub const HOUR_MS: u64 = 60 * MINUTE_MS;
/// Milliseconds per day.
pub const DAY_MS: u64 = 24 * HOUR_MS;
