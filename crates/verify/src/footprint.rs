//! Whole-schedule fabric-footprint analysis (V13x codes).
//!
//! Every verified schedule today implicitly owns the whole mesh; the
//! paper's promise is *partial* reconfiguration — independent regions
//! reconfiguring and computing without disturbing each other. This
//! module computes, from the per-epoch effect summaries and WCET
//! bounds the verifier already derives, the exact resource footprint a
//! schedule may touch:
//!
//! * **Tiles** ([`TileFootprint`]): every tile the schedule programs,
//!   patches, stalls, or writes into through a link, with the
//!   may-written data-memory word set (whole memory when a write did
//!   not resolve statically) and the peak instruction-memory load.
//!   Both endpoints of every active link are claimed — a link occupies
//!   its source's output port and its destination's input port.
//! * **Directed links** ([`LinkClaim`]): per epoch, each directed link
//!   an armed may-writer sends through, with the WCET engine's
//!   word-count ceiling for the traffic (`[best, worst]`, unbounded
//!   when a loop's trip count could not be inferred).
//! * **Shadow-plane slots** ([`ShadowClaim`]): the `(tile, target
//!   epoch)` slot tags a hoist plan stages through the background port,
//!   supplied by the caller from an independently re-verified
//!   `HoistCertificate`.
//!
//! The result is packaged as a [`FootprintCertificate`] under the same
//! trust model as `ActivityCertificate` and `HoistCertificate`:
//! consumers re-derive every claim field by field through
//! [`verify_footprint`] (a fresh schedule walk, fresh [`BoundCache`])
//! before admitting the schedule onto a shared fabric,
//! and refuse it wholesale ([`Code::FootprintRefused`], V133) on any
//! drift. [`check_disjoint`] decides whether certified footprints may
//! co-reside ([`Code::OverlapConflict`], V132) and
//! [`check_contained`] proves a merged schedule claims nothing beyond
//! the union of its tenants ([`Code::FootprintExceeded`], V131).
//!
//! The footprint is deliberately **cost-model independent**: it names
//! *which* resources a schedule may touch, never *when* — per-region
//! timing stays the per-tenant Eq. 1 bound, which is exactly what
//! makes composition sound (see `DESIGN.md` Sec. 15).

use crate::diag::{Code, Diagnostic};
use crate::dmem::WordSet;
use crate::schedule::{EpochAnalysis, EpochSpec};
use crate::timing::{BoundCache, CycleInterval};
use crate::walk::{walk_schedule, EpochPass};
use cgra_fabric::{Mesh, TileId};

/// One tile's proven whole-schedule footprint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileFootprint {
    /// The tile.
    pub tile: TileId,
    /// A program is loaded into the tile in some epoch.
    pub programmed: bool,
    /// Peak instruction-memory words any single epoch loads.
    pub imem_words: usize,
    /// A data patch rewrites the tile in some epoch.
    pub patched: bool,
    /// Local data-memory words that may be written across the whole
    /// schedule (patches, program stores, inbound remote writes);
    /// [`WordSet::full`] when any write did not resolve statically.
    pub dmem: WordSet,
}

impl TileFootprint {
    fn empty(tile: TileId) -> TileFootprint {
        TileFootprint {
            tile,
            programmed: false,
            imem_words: 0,
            patched: false,
            dmem: WordSet::empty(),
        }
    }
}

/// One directed link's worst-case usage in one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkClaim {
    /// The epoch the traffic flows in.
    pub epoch: usize,
    /// Source tile (owns the output port).
    pub from: TileId,
    /// Destination tile (owns the input port).
    pub to: TileId,
    /// Word-count ceiling from the WCET engine's remote-traffic bound.
    pub words: CycleInterval,
}

/// One shadow-plane slot a hoist plan occupies: payloads are tagged
/// `(tile, target epoch)` in [`cgra_fabric::ShadowConfig`], so the tag
/// pair *is* the slot identity two co-residents must not share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowClaim {
    /// The tile whose shadow plane holds the payload.
    pub tile: TileId,
    /// Epoch after which the payload sits staged (its last donor claim).
    pub staged_after: usize,
    /// Epoch whose switch commits the payload — the slot tag.
    pub target: usize,
}

/// The machine-checkable result of [`analyze_footprint`]: every fabric
/// resource the schedule may touch. Consumers must pass it through
/// [`verify_footprint`] before trusting any field.
#[derive(Debug, Clone, PartialEq)]
pub struct FootprintCertificate {
    /// Epochs the schedule runs (claims index into this range).
    pub epochs: usize,
    /// Per-tile claims, ascending by tile.
    pub tiles: Vec<TileFootprint>,
    /// Per-epoch directed-link claims, ascending by (epoch, from, to).
    pub links: Vec<LinkClaim>,
    /// Shadow-plane slots claimed by hoists, ascending by (tile, target).
    pub shadow: Vec<ShadowClaim>,
    /// Σ worst-case words over all link claims; `None` when any claim
    /// is unbounded.
    pub link_words_worst: Option<u64>,
}

impl FootprintCertificate {
    /// True when the certificate claims `tile`.
    pub fn claims_tile(&self, tile: TileId) -> bool {
        self.tiles.binary_search_by_key(&tile, |tf| tf.tile).is_ok()
    }

    /// The claim for `tile`, if any.
    pub fn tile(&self, tile: TileId) -> Option<&TileFootprint> {
        self.tiles
            .binary_search_by_key(&tile, |tf| tf.tile)
            .ok()
            .map(|i| &self.tiles[i])
    }
}

/// [`analyze_footprint`]'s output: the certificate plus the
/// informational V130 finding describing what was proven.
#[derive(Debug, Clone, PartialEq)]
pub struct FootprintAnalysis {
    /// The certificate (pass through [`verify_footprint`] before use).
    pub cert: FootprintCertificate,
    /// V130 footprint summary (warning, informational).
    pub diags: Vec<Diagnostic>,
}

/// The footprint pass: derives a [`FootprintCertificate`] epoch by
/// epoch on the schedule walk. The walk's bound memo supplies the WCET
/// traffic ceilings, so the derived word sets and link claims mirror
/// the WCET analysis bit for bit. [`FootprintPass::finish`] counts one
/// [`crate::Work::FootprintDerive`].
#[derive(Debug)]
pub struct FootprintPass {
    mesh: Mesh,
    epochs: usize,
    /// Per-tile claims, ascending by tile.
    tiles: Vec<TileFootprint>,
    links: Vec<LinkClaim>,
}

impl FootprintPass {
    /// A footprint for a cold array on `mesh`.
    pub fn new(mesh: Mesh) -> FootprintPass {
        FootprintPass {
            mesh,
            epochs: 0,
            tiles: Vec::new(),
            links: Vec::new(),
        }
    }

    /// The certificate over every epoch walked, with `shadow`'s slot
    /// tags folded in.
    pub fn finish(self, shadow: &[ShadowClaim]) -> FootprintCertificate {
        crate::work::tally(crate::work::Work::FootprintDerive);
        self.certificate(shadow)
    }

    /// [`Self::finish`] without the tally: what [`verify_footprint`]'s
    /// re-proof derives.
    fn certificate(self, shadow: &[ShadowClaim]) -> FootprintCertificate {
        let mut links = self.links;
        links.sort_by_key(|c| (c.epoch, c.from, c.to));
        let link_words_worst = links
            .iter()
            .try_fold(0u64, |sum, c| c.words.worst.map(|w| sum + w));
        let mut cert = FootprintCertificate {
            epochs: self.epochs,
            tiles: self.tiles,
            links,
            shadow: Vec::new(),
            link_words_worst,
        };
        cert.fold_shadow(self.mesh, shadow);
        cert
    }

    fn entry(&mut self, tile: TileId) -> &mut TileFootprint {
        match self.tiles.binary_search_by_key(&tile, |tf| tf.tile) {
            Ok(i) => &mut self.tiles[i],
            Err(i) => {
                self.tiles.insert(i, TileFootprint::empty(tile));
                &mut self.tiles[i]
            }
        }
    }
}

impl EpochPass for FootprintPass {
    fn epoch(
        &mut self,
        ei: usize,
        e: &EpochSpec,
        analysis: &EpochAnalysis,
        cache: &mut BoundCache,
    ) {
        let mesh = self.mesh;
        self.epochs = ei + 1;

        // Reconfigured tiles: program loads and data patches both rewrite
        // the tile's memories (and stall it behind the barrier).
        for spec in &e.tiles {
            if spec.tile >= mesh.tiles() {
                continue;
            }
            let tf = self.entry(spec.tile);
            if let Some(prog) = spec.program {
                tf.programmed = true;
                tf.imem_words = tf.imem_words.max(prog.len());
            }
            for p in spec.data_patches {
                tf.patched = true;
                tf.dmem.insert_range(p.base, p.len());
            }
        }

        // Both endpoints of every active link are fabric resources the
        // schedule occupies, whether or not words flow this epoch.
        for (t, dir) in e.links.iter_active() {
            if t >= mesh.tiles() {
                continue;
            }
            self.entry(t);
            if let Some(dst) = mesh.neighbour(t, dir) {
                self.entry(dst);
            }
        }

        // Armed tiles: local stores, and remote writes through the link
        // into the neighbour (with the WCET word-count ceiling).
        for ta in &analysis.tiles {
            if ta.tile >= mesh.tiles() {
                continue;
            }
            let pb = cache.bound(ta.prog, &ta.opts);
            let (local, may_write, remote, remote_all) = match &ta.summary {
                Some(s) => (
                    s.written,
                    s.has_remote_write,
                    s.remote_written,
                    s.remote_unknown,
                ),
                // Unresolved summary: assume every write the ISA allows.
                None => (WordSet::full(), true, WordSet::full(), true),
            };
            self.entry(ta.tile).dmem.union(&local);
            if !may_write {
                continue;
            }
            let Some(dir) = e.links.get(ta.tile) else {
                // A runtime remote write without a link faults before any
                // word lands; no cross-tile effect to claim.
                continue;
            };
            let Some(dst) = mesh.neighbour(ta.tile, dir) else {
                continue;
            };
            let dst_set = if remote_all { WordSet::full() } else { remote };
            self.entry(dst).dmem.union(&dst_set);
            self.links.push(LinkClaim {
                epoch: ei,
                from: ta.tile,
                to: dst,
                words: pb.remote_words,
            });
        }
    }
}

/// Derives the [`FootprintCertificate`] of a schedule on a cold array,
/// with no shadow-plane claims (un-hoisted execution).
pub fn analyze_footprint(mesh: Mesh, epochs: &[EpochSpec]) -> FootprintAnalysis {
    analyze_footprint_with_shadow(mesh, epochs, &[])
}

/// Derives the [`FootprintCertificate`] of a schedule on a cold array:
/// the [`FootprintPass`] run alone on the schedule walk. `shadow`
/// carries the slot tags of an independently re-verified hoist plan
/// (empty for un-hoisted execution); the claims are folded into the
/// certificate so co-residency checks see the shadow plane too.
pub fn analyze_footprint_with_shadow(
    mesh: Mesh,
    epochs: &[EpochSpec],
    shadow: &[ShadowClaim],
) -> FootprintAnalysis {
    derive(mesh, epochs).finish(shadow).into()
}

/// The [`FootprintPass`] run alone on a fresh walk (fresh
/// [`BoundCache`]).
fn derive(mesh: Mesh, epochs: &[EpochSpec]) -> FootprintPass {
    let mut pass = FootprintPass::new(mesh);
    walk_schedule(mesh, epochs, &mut BoundCache::new(), &mut [&mut pass]);
    pass
}

impl From<FootprintCertificate> for FootprintAnalysis {
    /// The certificate with its V130 summary.
    fn from(cert: FootprintCertificate) -> FootprintAnalysis {
        let diags = vec![footprint_summary(&cert)];
        FootprintAnalysis { cert, diags }
    }
}

impl FootprintCertificate {
    /// Folds shadow-plane claims in: a staged payload occupies its
    /// tile's shadow plane, so the tile is part of the footprint even
    /// before its commit epoch reconfigures it (it always will — hoists
    /// target real rewrites).
    fn fold_shadow(&mut self, mesh: Mesh, shadow: &[ShadowClaim]) {
        self.shadow = shadow.to_vec();
        self.shadow.sort_by_key(|c| (c.tile, c.target));
        for c in &self.shadow {
            if c.tile >= mesh.tiles() {
                continue;
            }
            if let Err(at) = self.tiles.binary_search_by_key(&c.tile, |tf| tf.tile) {
                self.tiles.insert(at, TileFootprint::empty(c.tile));
            }
        }
    }

    /// This certificate moved onto `mesh` through `map`, with `shadow`'s
    /// slot tags (already in `mesh` coordinates) folded in — equal to
    /// [`analyze_footprint_with_shadow`] over the moved schedule, since
    /// every claim is per tile or per directed link and translation
    /// moves tiles, not work. `None` when `map` drops a claimed tile.
    /// The certificate must carry no shadow claims of its own.
    pub fn translated(
        &self,
        mesh: Mesh,
        map: impl Fn(TileId) -> Option<TileId>,
        shadow: &[ShadowClaim],
    ) -> Option<FootprintCertificate> {
        let mut tiles = self
            .tiles
            .iter()
            .map(|tf| map(tf.tile).map(|tile| TileFootprint { tile, ..*tf }))
            .collect::<Option<Vec<_>>>()?;
        tiles.sort_by_key(|tf| tf.tile);
        let mut links = self
            .links
            .iter()
            .map(|c| {
                Some(LinkClaim {
                    from: map(c.from)?,
                    to: map(c.to)?,
                    ..*c
                })
            })
            .collect::<Option<Vec<_>>>()?;
        links.sort_by_key(|c| (c.epoch, c.from, c.to));
        let mut cert = FootprintCertificate {
            epochs: self.epochs,
            tiles,
            links,
            shadow: Vec::new(),
            link_words_worst: self.link_words_worst,
        };
        cert.fold_shadow(mesh, shadow);
        Some(cert)
    }
}

/// The informational V130 finding describing what `cert` proves.
pub fn footprint_summary(cert: &FootprintCertificate) -> Diagnostic {
    Diagnostic::warning(
        Code::Footprint,
        format!(
            "footprint: {} tiles ({} programmed), {} directed link-epoch claims \
             ({} worst-case words), {} shadow slots over {} epochs",
            cert.tiles.len(),
            cert.tiles.iter().filter(|t| t.programmed).count(),
            cert.links.len(),
            match cert.link_words_worst {
                Some(w) => w.to_string(),
                None => "unbounded".to_string(),
            },
            cert.shadow.len(),
            cert.epochs,
        ),
    )
}

/// Independently re-derives every claim of `cert` from scratch (a fresh
/// schedule walk, fresh [`BoundCache`]) and refuses the
/// certificate ([`Code::FootprintRefused`] errors) on any drift.
/// `shadow` must be the slot tags re-derived from the schedule's own
/// re-verified hoist plan (empty when running un-hoisted). An empty
/// return means every tile, link, and shadow claim checked out.
pub fn verify_footprint(
    mesh: Mesh,
    epochs: &[EpochSpec],
    shadow: &[ShadowClaim],
    cert: &FootprintCertificate,
) -> Vec<Diagnostic> {
    crate::work::tally(crate::work::Work::FootprintReproof);
    let mut diags = Vec::new();
    let mut refuse = |msg: String| {
        diags.push(Diagnostic::error(Code::FootprintRefused, msg));
    };

    if cert.epochs != epochs.len() {
        refuse(format!(
            "certificate covers {} epochs but the schedule has {}",
            cert.epochs,
            epochs.len()
        ));
        return diags;
    }

    let fresh = derive(mesh, epochs).certificate(shadow);
    if cert.tiles != fresh.tiles {
        let claimed: Vec<TileId> = cert.tiles.iter().map(|t| t.tile).collect();
        let derived: Vec<TileId> = fresh.tiles.iter().map(|t| t.tile).collect();
        refuse(format!(
            "claimed tile footprints disagree with the effect-summary derivation \
             (claimed tiles {claimed:?}, derived {derived:?})"
        ));
    }
    if cert.links != fresh.links {
        refuse(format!(
            "claimed link usage disagrees with the WCET traffic derivation \
             (claimed {} claims, derived {})",
            cert.links.len(),
            fresh.links.len()
        ));
    }
    if cert.shadow != fresh.shadow {
        refuse(format!(
            "claimed shadow slots disagree with the hoist plan \
             (claimed {}, derived {})",
            cert.shadow.len(),
            fresh.shadow.len()
        ));
    }
    if cert.link_words_worst != fresh.link_words_worst {
        refuse("claimed worst-case link traffic disagrees with the claim sum".to_string());
    }
    diags
}

/// An undirected physical channel at one epoch, with every claim made
/// on it: (claiming part index, word-count interval).
type LinkContention = Vec<((usize, TileId, TileId), Vec<(usize, CycleInterval)>)>;

/// Decides whether certified footprints may co-reside on one fabric:
/// no shared tile, no shared physical link (and per-link per-epoch
/// bandwidth sums within `link_capacity_words` when given), no shared
/// shadow slot. Emits [`Code::OverlapConflict`] errors naming the
/// contested resource and both schedules; an empty return means the
/// footprints are pairwise disjoint. Callers must only pass
/// certificates that already survived [`verify_footprint`].
pub fn check_disjoint(
    parts: &[(&str, &FootprintCertificate)],
    link_capacity_words: Option<u64>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // Shared tiles, pairwise.
    for (i, (na, ca)) in parts.iter().enumerate() {
        for (nb, cb) in parts.iter().skip(i + 1) {
            for tf in &ca.tiles {
                if cb.claims_tile(tf.tile) {
                    diags.push(
                        Diagnostic::error(
                            Code::OverlapConflict,
                            format!("schedules '{na}' and '{nb}' both claim tile {}", tf.tile),
                        )
                        .on_tile(tf.tile),
                    );
                }
            }
        }
    }

    // Shared physical links and per-link bandwidth, per epoch. A
    // directed claim a→b and its reverse b→a contend for the same
    // 48-wire physical channel, so claims are keyed undirected.
    let mut by_link: LinkContention = Vec::new();
    for (pi, (_, cert)) in parts.iter().enumerate() {
        for c in &cert.links {
            let key = (c.epoch, c.from.min(c.to), c.from.max(c.to));
            match by_link.binary_search_by_key(&key, |(k, _)| *k) {
                Ok(i) => by_link[i].1.push((pi, c.words)),
                Err(i) => by_link.insert(i, (key, vec![(pi, c.words)])),
            }
        }
    }
    for ((epoch, a, b), users) in &by_link {
        let mut owners: Vec<usize> = users.iter().map(|(pi, _)| *pi).collect();
        owners.dedup();
        if owners.len() > 1 {
            let names: Vec<&str> = owners.iter().map(|&pi| parts[pi].0).collect();
            diags.push(
                Diagnostic::error(
                    Code::OverlapConflict,
                    format!(
                        "schedules {} all claim the link between tiles {a} and {b} in epoch {epoch}",
                        names
                            .iter()
                            .map(|n| format!("'{n}'"))
                            .collect::<Vec<_>>()
                            .join(" and "),
                    ),
                )
                .on_tile(*a)
                .in_epoch(*epoch),
            );
        }
        if let Some(cap) = link_capacity_words {
            if owners.len() > 1 {
                let total = users
                    .iter()
                    .try_fold(0u64, |sum, (_, w)| w.worst.map(|v| sum + v));
                let over = match total {
                    Some(t) => t > cap,
                    None => true, // unbounded traffic cannot share a link
                };
                if over {
                    let names: Vec<String> = owners
                        .iter()
                        .map(|&pi| format!("'{}'", parts[pi].0))
                        .collect();
                    diags.push(
                        Diagnostic::error(
                            Code::OverlapConflict,
                            format!(
                                "link between tiles {a} and {b} in epoch {epoch}: combined \
                                 worst-case traffic {} exceeds the {cap}-word capacity \
                                 (claimed by {})",
                                match total {
                                    Some(t) => format!("{t} words"),
                                    None => "is unbounded".to_string(),
                                },
                                names.join(" and "),
                            ),
                        )
                        .on_tile(*a)
                        .in_epoch(*epoch),
                    );
                }
            }
        }
    }

    // Shared shadow slots: the (tile, target) commit tag is the slot
    // identity — two schedules staging under one tag would collide in
    // the ShadowConfig plane.
    for (i, (na, ca)) in parts.iter().enumerate() {
        for (nb, cb) in parts.iter().skip(i + 1) {
            for sa in &ca.shadow {
                if cb
                    .shadow
                    .iter()
                    .any(|sb| sb.tile == sa.tile && sb.target == sa.target)
                {
                    diags.push(
                        Diagnostic::error(
                            Code::OverlapConflict,
                            format!(
                                "schedules '{na}' and '{nb}' both stage a shadow payload on \
                                 tile {} for epoch {}",
                                sa.tile, sa.target
                            ),
                        )
                        .on_tile(sa.tile)
                        .in_epoch(sa.target),
                    );
                }
            }
        }
    }

    diags
}

/// Proves a merged schedule claims nothing beyond the union of its
/// tenants: every tile, link, and shadow claim of `merged` must be
/// covered by some tenant's certificate. Emits
/// [`Code::FootprintExceeded`] errors naming each unclaimed resource;
/// an empty return is the composition-soundness obligation — the
/// merged schedule provably touches only fabric its tenants own.
pub fn check_contained(
    merged: &FootprintCertificate,
    parts: &[(&str, &FootprintCertificate)],
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    for tf in &merged.tiles {
        let Some(owner) = parts.iter().find(|(_, c)| c.claims_tile(tf.tile)) else {
            diags.push(
                Diagnostic::error(
                    Code::FootprintExceeded,
                    format!("merged schedule touches tile {} no tenant claims", tf.tile),
                )
                .on_tile(tf.tile),
            );
            continue;
        };
        let Some(own) = owner.1.tile(tf.tile) else {
            continue;
        };
        let within = (!tf.programmed || own.programmed)
            && (!tf.patched || own.patched)
            && tf.imem_words <= own.imem_words
            && tf.dmem.iter().all(|w| own.dmem.contains(w));
        if !within {
            diags.push(
                Diagnostic::error(
                    Code::FootprintExceeded,
                    format!(
                        "merged schedule's use of tile {} exceeds tenant '{}''s claim \
                         ({} dmem words vs {} claimed, {} imem words vs {})",
                        tf.tile,
                        owner.0,
                        tf.dmem.len(),
                        own.dmem.len(),
                        tf.imem_words,
                        own.imem_words,
                    ),
                )
                .on_tile(tf.tile),
            );
        }
    }

    for lc in &merged.links {
        let covered = parts.iter().any(|(_, c)| {
            c.links.iter().any(|own| {
                own.epoch == lc.epoch
                    && own.from == lc.from
                    && own.to == lc.to
                    && match (own.words.worst, lc.words.worst) {
                        (None, _) => true,
                        (Some(cap), Some(w)) => w <= cap,
                        (Some(_), None) => false,
                    }
            })
        });
        if !covered {
            diags.push(
                Diagnostic::error(
                    Code::FootprintExceeded,
                    format!(
                        "merged schedule sends over the link {} → {} in epoch {} beyond \
                         any tenant's claim",
                        lc.from, lc.to, lc.epoch
                    ),
                )
                .on_tile(lc.from)
                .in_epoch(lc.epoch),
            );
        }
    }

    for sc in &merged.shadow {
        let covered = parts.iter().any(|(_, c)| c.shadow.contains(sc));
        if !covered {
            diags.push(
                Diagnostic::error(
                    Code::FootprintExceeded,
                    format!(
                        "merged schedule stages a shadow payload on tile {} for epoch {} \
                         no tenant claims",
                        sc.tile, sc.target
                    ),
                )
                .on_tile(sc.tile)
                .in_epoch(sc.target),
            );
        }
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::TileSpec;
    use cgra_fabric::{DataPatch, Direction, Mesh, Word};
    use cgra_isa::ops::{d, imm, rem};
    use cgra_isa::Instr;

    fn compute_prog(n: i32) -> Vec<Instr> {
        vec![
            Instr::Ldi { dst: d(0), imm: n },
            Instr::Add {
                dst: d(1),
                a: d(1),
                b: imm(1),
            },
            Instr::Djnz {
                dst: d(0),
                target: 1,
            },
            Instr::Halt,
        ]
    }

    fn writer_prog() -> Vec<Instr> {
        vec![
            Instr::Ldar {
                k: 0,
                src: None,
                imm: 10,
            },
            Instr::Mov {
                dst: rem(0),
                a: imm(7),
            },
            Instr::Halt,
        ]
    }

    #[test]
    fn footprint_covers_writers_targets_and_patches() {
        let mesh = Mesh::new(1, 4);
        let links = mesh.disconnected().with(0, Direction::East);
        let w = writer_prog();
        let c = compute_prog(3);
        let patches = [DataPatch::new(8, vec![Word::wrap(5); 4])];
        let epochs = [EpochSpec {
            name: "e0",
            links: &links,
            tiles: vec![
                TileSpec {
                    tile: 0,
                    program: Some(&w),
                    data_patches: &[],
                },
                TileSpec {
                    tile: 2,
                    program: Some(&c),
                    data_patches: &patches,
                },
            ],
        }];
        let a = analyze_footprint(mesh, &epochs);
        let cert = &a.cert;
        // Tiles: 0 (writer), 1 (link target), 2 (compute + patch).
        // Tile 3 is untouched and must stay out of the footprint.
        let claimed: Vec<TileId> = cert.tiles.iter().map(|t| t.tile).collect();
        assert_eq!(claimed, vec![0, 1, 2]);
        assert!(!cert.claims_tile(3));
        let t1 = cert.tile(1).expect("link target claimed");
        assert!(!t1.programmed && !t1.patched);
        assert!(t1.dmem.contains(10), "remote write lands in d[10]");
        let t2 = cert.tile(2).expect("patched tile claimed");
        assert!(t2.patched && t2.programmed);
        assert!(t2.dmem.contains(8) && t2.dmem.contains(11));
        assert_eq!(cert.links.len(), 1);
        assert_eq!((cert.links[0].from, cert.links[0].to), (0, 1));
        assert_eq!(cert.link_words_worst, Some(1));
        assert!(a.diags.iter().any(|d| d.code == Code::Footprint));
    }

    #[test]
    fn genuine_certificate_passes_reverification() {
        let mesh = Mesh::new(2, 2);
        let links = mesh.disconnected().with(0, Direction::East);
        let later = mesh.disconnected();
        let w = writer_prog();
        let c = compute_prog(6);
        let epochs = [
            EpochSpec {
                name: "send",
                links: &links,
                tiles: vec![
                    TileSpec {
                        tile: 0,
                        program: Some(&w),
                        data_patches: &[],
                    },
                    TileSpec {
                        tile: 2,
                        program: Some(&c),
                        data_patches: &[],
                    },
                ],
            },
            EpochSpec {
                name: "crunch",
                links: &later,
                tiles: vec![TileSpec {
                    tile: 3,
                    program: Some(&c),
                    data_patches: &[],
                }],
            },
        ];
        let shadow = [ShadowClaim {
            tile: 3,
            staged_after: 0,
            target: 1,
        }];
        let a = analyze_footprint_with_shadow(mesh, &epochs, &shadow);
        let diags = verify_footprint(mesh, &epochs, &shadow, &a.cert);
        assert_eq!(diags, vec![], "genuine certificate must verify clean");
    }

    #[test]
    fn fabricated_certificates_are_refused() {
        let mesh = Mesh::new(1, 2);
        let links = mesh.disconnected().with(0, Direction::East);
        let w = writer_prog();
        let epochs = [EpochSpec {
            name: "e0",
            links: &links,
            tiles: vec![TileSpec {
                tile: 0,
                program: Some(&w),
                data_patches: &[],
            }],
        }];
        let a = analyze_footprint(mesh, &epochs);

        let refused = |cert: &FootprintCertificate| {
            let diags = verify_footprint(mesh, &epochs, &[], cert);
            assert!(
                diags
                    .iter()
                    .any(|d| d.code == Code::FootprintRefused && d.is_error()),
                "fabrication must be refused, got {diags:?}"
            );
        };

        // Dropped tile claim (hides the link target's mutated memory).
        let mut lie = a.cert.clone();
        lie.tiles.retain(|t| t.tile != 1);
        refused(&lie);

        // Shrunk dmem claim.
        let mut lie = a.cert.clone();
        lie.tiles[1].dmem = WordSet::empty();
        refused(&lie);

        // Dropped link claim (hides the traffic).
        let mut lie = a.cert.clone();
        lie.links.clear();
        refused(&lie);

        // Understated traffic ceiling.
        let mut lie = a.cert.clone();
        lie.link_words_worst = Some(0);
        refused(&lie);

        // Fabricated shadow slot.
        let mut lie = a.cert.clone();
        lie.shadow.push(ShadowClaim {
            tile: 0,
            staged_after: 0,
            target: 1,
        });
        refused(&lie);

        // Wrong epoch count.
        let mut lie = a.cert.clone();
        lie.epochs = 7;
        refused(&lie);

        // The untampered certificate still verifies.
        assert_eq!(verify_footprint(mesh, &epochs, &[], &a.cert), vec![]);
    }

    fn cert_with_tiles(tiles: &[TileId]) -> FootprintCertificate {
        FootprintCertificate {
            epochs: 1,
            tiles: tiles.iter().map(|&t| TileFootprint::empty(t)).collect(),
            links: Vec::new(),
            shadow: Vec::new(),
            link_words_worst: Some(0),
        }
    }

    #[test]
    fn shared_tile_is_a_named_conflict() {
        let a = cert_with_tiles(&[0, 1]);
        let b = cert_with_tiles(&[1, 2]);
        let diags = check_disjoint(&[("fft", &a), ("jpeg", &b)], None);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::OverlapConflict);
        assert!(diags[0].is_error());
        assert_eq!(diags[0].tile, Some(1));
        assert!(diags[0].message.contains("'fft'") && diags[0].message.contains("'jpeg'"));
    }

    #[test]
    fn shared_link_and_bandwidth_are_conflicts() {
        // Disjoint tiles, but both claim the physical 0↔1 channel in
        // epoch 0 (one forward, one reverse).
        let mut a = cert_with_tiles(&[0]);
        a.links.push(LinkClaim {
            epoch: 0,
            from: 0,
            to: 1,
            words: CycleInterval::exact(30),
        });
        let mut b = cert_with_tiles(&[1]);
        b.links.push(LinkClaim {
            epoch: 0,
            from: 1,
            to: 0,
            words: CycleInterval::exact(30),
        });
        // Tile claims overlap too (0's claim of dst 1 elided here), so
        // restrict to the link diagnostics.
        let diags = check_disjoint(&[("a", &a), ("b", &b)], Some(48));
        let link_diags: Vec<_> = diags
            .iter()
            .filter(|d| d.message.contains("all claim the link"))
            .collect();
        assert_eq!(link_diags.len(), 1, "{diags:?}");
        assert!(link_diags[0].message.contains("'a'") && link_diags[0].message.contains("'b'"));
        let bw: Vec<_> = diags
            .iter()
            .filter(|d| d.message.contains("exceeds the 48-word capacity"))
            .collect();
        assert_eq!(bw.len(), 1, "60 > 48 words must trip the ceiling");
    }

    #[test]
    fn shared_shadow_slot_is_a_conflict() {
        let mut a = cert_with_tiles(&[0]);
        a.shadow.push(ShadowClaim {
            tile: 5,
            staged_after: 0,
            target: 2,
        });
        let mut b = cert_with_tiles(&[1]);
        b.shadow.push(ShadowClaim {
            tile: 5,
            staged_after: 1,
            target: 2,
        });
        let diags = check_disjoint(&[("a", &a), ("b", &b)], None);
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::OverlapConflict && d.message.contains("shadow")),
            "{diags:?}"
        );
    }

    #[test]
    fn disjoint_certificates_pass() {
        let mut a = cert_with_tiles(&[0, 1]);
        a.links.push(LinkClaim {
            epoch: 0,
            from: 0,
            to: 1,
            words: CycleInterval::exact(10),
        });
        let mut b = cert_with_tiles(&[2, 3]);
        b.links.push(LinkClaim {
            epoch: 0,
            from: 2,
            to: 3,
            words: CycleInterval::exact(10),
        });
        assert_eq!(check_disjoint(&[("a", &a), ("b", &b)], Some(48)), vec![]);
    }

    #[test]
    fn containment_flags_unclaimed_resources() {
        let a = cert_with_tiles(&[0, 1]);
        let b = cert_with_tiles(&[2]);
        let mut merged = cert_with_tiles(&[0, 1, 2]);
        assert_eq!(check_contained(&merged, &[("a", &a), ("b", &b)]), vec![]);

        // A tile nobody claims.
        merged.tiles.push(TileFootprint::empty(9));
        let diags = check_contained(&merged, &[("a", &a), ("b", &b)]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::FootprintExceeded);
        assert_eq!(diags[0].tile, Some(9));
        merged.tiles.pop();

        // More dmem than the owner claimed.
        merged.tiles[0].dmem.insert(3);
        let diags = check_contained(&merged, &[("a", &a), ("b", &b)]);
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::FootprintExceeded && d.tile == Some(0)),
            "{diags:?}"
        );
        merged.tiles[0].dmem = WordSet::empty();

        // A link claim beyond any tenant's.
        merged.links.push(LinkClaim {
            epoch: 0,
            from: 0,
            to: 1,
            words: CycleInterval::exact(1),
        });
        let diags = check_contained(&merged, &[("a", &a), ("b", &b)]);
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::FootprintExceeded && d.message.contains("link")),
            "{diags:?}"
        );
    }
}
