//! Circuit-based coflow scheduling (§2 of the paper): flows are connection
//! requests that receive a path and a bandwidth function.

pub mod lp_free;
pub mod lp_given;
pub(crate) mod path_lp;
pub mod round_free;
pub mod round_given;
