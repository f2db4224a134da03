//! ⟨password, PL⟩ access control (§V, Fig. 3).
//!
//! "The pair ⟨password, PL⟩ is used for access control which associates a
//! group of users with a ⟨password, PL⟩ pair at client side." A request is
//! honoured when the presented password is listed under the client and its
//! privacy level is ≥ the chunk's privacy level.

use crate::tables::ClientEntry;
use crate::{CoreError, Result};
use fragcloud_sim::PrivacyLevel;

/// Resolves a password's PL for a client; `AccessDenied` when the password
/// is not listed.
pub fn password_level(client: &ClientEntry, password: &str) -> Result<PrivacyLevel> {
    client
        .passwords
        .iter()
        .find(|(p, _)| p == password)
        .map(|(_, pl)| *pl)
        .ok_or(CoreError::AccessDenied)
}

/// Fig. 3's rule: the password must be "privileged enough", i.e. its PL ≥
/// the chunk's PL.
pub fn authorize(client: &ClientEntry, password: &str, chunk_pl: PrivacyLevel) -> Result<()> {
    check(password_level(client, password).ok(), chunk_pl)
}

/// Fig. 3's rule over a level [`password_level`] already resolved: `None`
/// — a password the client does not list — is denied like a level below
/// `chunk_pl`.
pub(crate) fn check(level: Option<PrivacyLevel>, chunk_pl: PrivacyLevel) -> Result<()> {
    match level {
        Some(pl) if pl >= chunk_pl => Ok(()),
        _ => Err(CoreError::AccessDenied),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bob() -> ClientEntry {
        ClientEntry {
            // Fig. 3's password list for Bob.
            passwords: vec![
                ("aB1c".into(), PrivacyLevel::Public),
                ("x9pr".into(), PrivacyLevel::Low),
                ("6S4r".into(), PrivacyLevel::Moderate),
                ("Ty7e".into(), PrivacyLevel::High),
            ],
        }
    }

    #[test]
    fn fig3_scenario_authorized() {
        // "(Bob, x9pr, file1, 0)": password PL 1 = chunk PL 1 → allowed.
        let c = bob();
        assert!(authorize(&c, "x9pr", PrivacyLevel::Low).is_ok());
    }

    #[test]
    fn fig3_scenario_denied() {
        // "(Bob, aB1c, file1, 0)": password PL 0 < chunk PL 1 → denied.
        let c = bob();
        assert_eq!(
            authorize(&c, "aB1c", PrivacyLevel::Low).unwrap_err(),
            CoreError::AccessDenied
        );
    }

    #[test]
    fn higher_password_opens_lower_chunks() {
        let c = bob();
        for pl in PrivacyLevel::ALL {
            assert!(authorize(&c, "Ty7e", pl).is_ok(), "{pl}");
        }
    }

    #[test]
    fn unknown_password_denied() {
        let c = bob();
        assert_eq!(
            authorize(&c, "wrong", PrivacyLevel::Public).unwrap_err(),
            CoreError::AccessDenied
        );
        assert!(password_level(&c, "nope").is_err());
    }

    #[test]
    fn password_level_reports_listed_level() {
        let c = bob();
        assert_eq!(password_level(&c, "6S4r").unwrap(), PrivacyLevel::Moderate);
    }
}
