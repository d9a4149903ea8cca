//! The seeded request stream.
//!
//! Everything the client sends is generated here, before any server
//! starts, from the workload name and `--seed` alone: the synthetic
//! world (the same one every `dlm-serve` builds from its default flags),
//! the simulated stories, and every request of every phase with its
//! intended send time, connection, and expected answer. The servers only
//! ever see the wire bytes.
//!
//! The seed varies every simulated vote and every draw of the traffic,
//! but not the population it is drawn over: cascade `i` of a role always
//! starts at the same story initiator with the same preset. Which hubs a
//! run happens to pick would otherwise move forecast and refit costs by
//! more than any bound a regression gate could use.

use crate::rng::Rng;
use dlm_cascade::hops::hop_groups;
use dlm_data::simulate::{simulate_story, SimulationConfig, SIMULATED_SUBMIT_TIME};
use dlm_data::{StoryPreset, SyntheticWorld, WorldConfig};
use dlm_serve::wire;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// `dlm-serve --scale` default: the world every backend generates.
pub const WORLD_SCALE: f64 = 0.15;
/// Protocol default `max_hops`, sent explicitly on every `open`.
pub const MAX_HOPS: u32 = 5;
/// Tracked hours of every opened cascade.
pub const HORIZON: u32 = 24;
/// Every warm or fresh cascade is caught up to this many closed hours
/// by one hour-closing `ingest`, so closes have one shape everywhere.
pub const CLOSE_DEPTH: u32 = 3;
/// Hours simulated per story: the realized density forecasts are scored
/// against reaches this far.
pub const STORY_HOURS: u32 = 8;
/// Cascades preloaded during set-up on every workload. Their working
/// set (24 cascades × 3 closed hours × 8 specs = 576 fits, split over
/// two backends) stays well under the 1024-entry fit cache.
pub const WARM_CASCADES: usize = 24;
/// Story-initiator ordinals the catalog cycles through
/// (`SyntheticWorld::story_initiator`): warm cascades take the first
/// [`WARM_CASCADES`], fresh ones the rest.
const INITIATORS: usize = 48;
/// Story presets the catalog draws from (`StoryPreset::all` index) and
/// the smallest simulated story of each it replays: tiny cascades make
/// densities of a vote or two, whose Eq.-8 scores swing from seed to
/// seed. Only `s1` stories reach a few hundred votes at this world
/// scale (`s3`/`s4` stay under twenty), so warm cascades — the ones
/// forecasts hit and Eq. 8 scores — are all `s1`, and fresh refit-storm
/// cascades alternate `s1` and `s2`.
const PRESETS: [(usize, usize); 2] = [(0, 200), (1, 50)];
/// Simulation seeds tried per catalog entry before moving to the next
/// initiator ordinal.
const ATTEMPTS: u64 = 16;
/// Nominal-phase forecasts per run bit-compared against offline fits.
const NOMINAL_SAMPLE: usize = 6;
/// Check-phase forecasts per run bit-compared against offline fits.
const CHECK_SAMPLE: usize = 4;
/// Share of the `--seconds` budget the nominal phase gets; the ladder
/// rungs share the rest, [`EXPECTED_RUNGS`] of them.
const NOMINAL_SHARE: f64 = 0.65;
/// Rungs a run is expected to climb before its first failure (the
/// nominal rate sits at about half the knee).
const EXPECTED_RUNGS: f64 = 4.0;

/// The rate ladder every workload climbs, as multiples of its nominal
/// rate: 10 % steps from 1.5× to 5×, so a run with its knee near 2×
/// stops after four or five rungs.
const LADDER: &[f64] = &[
    1.5, 1.65, 1.8, 2.0, 2.2, 2.4, 2.65, 2.9, 3.2, 3.5, 3.85, 4.2, 4.6, 5.0,
];

/// One of the named traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Forecasts against prewarmed cascades (cache hits) plus a trickle
    /// of in-hour votes.
    ForecastHot,
    /// Hour-closing ingests on distinct fresh cascades (cache misses)
    /// beside warm forecasts and in-hour votes.
    RefitStorm,
    /// Opens and 1–3-vote in-hour deliveries over negotiated binary
    /// framing.
    VoteFirehose,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Self::ForecastHot, Self::RefitStorm, Self::VoteFirehose];

    /// The workload's name on the command line and in results.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::ForecastHot => "forecast-hot",
            Self::RefitStorm => "refit-storm",
            Self::VoteFirehose => "vote-firehose",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the client negotiates binary framing on its connections.
    #[must_use]
    pub fn binary(self) -> bool {
        self == Self::VoteFirehose
    }

    /// The fixed traffic shape: nominal per-class rates, the rate
    /// ladder, the latency limit the ladder judges, and the closed-loop
    /// probes that sample the classes the mix itself sends too rarely.
    #[must_use]
    pub fn shape(self) -> Shape {
        match self {
            Self::ForecastHot => Shape {
                forecast_rps: 32.0,
                ingest_rps: 8.0,
                close_rps: 0.0,
                open_share: 0.0,
                ladder: LADDER,
                primary: Class::Forecast,
                tail: 0.9,
                limit_ms: 150.0,
                probe_forecasts: 0,
                probe_ingests: 3000,
            },
            Self::RefitStorm => Shape {
                forecast_rps: 12.0,
                ingest_rps: 8.0,
                close_rps: 2.0,
                open_share: 0.0,
                ladder: LADDER,
                primary: Class::Close,
                tail: 0.9,
                limit_ms: 500.0,
                probe_forecasts: 0,
                probe_ingests: 3000,
            },
            Self::VoteFirehose => Shape {
                forecast_rps: 0.0,
                ingest_rps: 1000.0,
                close_rps: 0.0,
                open_share: 0.05,
                ladder: LADDER,
                primary: Class::Ingest,
                tail: 0.9,
                limit_ms: 25.0,
                probe_forecasts: 300,
                probe_ingests: 3000,
            },
        }
    }
}

/// A workload's fixed traffic shape.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Forecasts per second at the nominal rate.
    pub forecast_rps: f64,
    /// In-hour ingests (and, on vote-firehose, opens) per second.
    pub ingest_rps: f64,
    /// Fresh-cascade open + hour-closing ingest pairs per second.
    pub close_rps: f64,
    /// Vote-firehose: share of write slots that open a fresh cascade.
    pub open_share: f64,
    /// Ladder rungs above the nominal rate, as multiples of it.
    pub ladder: &'static [f64],
    /// The class whose tail the ladder judges.
    pub primary: Class,
    /// The tail quantile the ladder judges.
    pub tail: f64,
    /// A rung passes while that tail stays at or under this limit.
    pub limit_ms: f64,
    /// Closed-loop forecasts in the probe phase.
    pub probe_forecasts: usize,
    /// Closed-loop in-hour ingests in the probe phase.
    pub probe_ingests: usize,
}

/// What a request is, for latency accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Class {
    /// `open`.
    Open,
    /// `ingest` that closes no hour.
    Ingest,
    /// `ingest` that closes hours (and so refits the lineup).
    Close,
    /// `forecast`.
    Forecast,
}

impl Class {
    /// Short name used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Open => "open",
            Self::Ingest => "ingest",
            Self::Close => "close",
            Self::Forecast => "forecast",
        }
    }
}

/// The answer a request must get.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// `"ok":true`.
    Ok,
    /// `"ok":true` with this cumulative `counted` (and, for closes, this
    /// `closed_hours`) — the offline count of the same votes.
    Counted { counted: u64, closed: Option<u32> },
    /// `"ok":true` forecast on warm cascade `warm`. `compare`: the
    /// response is bit-compared against an offline fit + predict;
    /// `score`: its `dl-cal` cells count toward `eq8_accuracy`.
    Forecast {
        warm: usize,
        through: u32,
        hours: Vec<u32>,
        compare: bool,
        score: bool,
    },
}

/// One request of the stream.
#[derive(Clone, Debug)]
pub struct Request {
    /// Position in the whole stream: the request id its trace spans
    /// share.
    pub id: u64,
    /// Intended send time, seconds after the phase starts.
    pub at: f64,
    /// Latency class.
    pub class: Class,
    /// The cascade the request addresses.
    pub cascade: String,
    /// The exact bytes written to the socket (a line, or a frame).
    pub bytes: Vec<u8>,
    /// The expected answer.
    pub expect: Expect,
}

/// One phase: a request list per connection.
#[derive(Clone, Debug)]
pub struct Phase {
    /// Phase name in reports.
    pub name: String,
    /// Open loop (sent on the schedule) or closed loop (each request
    /// after the previous answer on its connection).
    pub open_loop: bool,
    /// Scheduled length in seconds (0 for closed-loop phases).
    pub seconds: f64,
    /// Rate multiple of the nominal rate (1 for non-ladder phases).
    pub multiple: f64,
    /// Requests per connection, in send order.
    pub conns: [Vec<Request>; 2],
}

impl Phase {
    fn new(name: &str, open_loop: bool, seconds: f64, multiple: f64) -> Self {
        Self {
            name: name.to_owned(),
            open_loop,
            seconds,
            multiple,
            conns: [Vec::new(), Vec::new()],
        }
    }

    /// Requests in the phase.
    #[must_use]
    pub fn len(&self) -> usize {
        self.conns.iter().map(Vec::len).sum()
    }

    /// Whether the phase sends nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every request, connection 0's first.
    pub fn requests(&self) -> impl Iterator<Item = &Request> {
        self.conns.iter().flatten()
    }
}

/// A cascade the client knows in full: its votes and hop groups, from
/// which every expected count is derived offline.
#[derive(Debug, Clone)]
pub struct Cascade {
    /// Wire id.
    pub id: String,
    /// The initiating user.
    pub initiator: usize,
    /// Simulated story (`None` for firehose cascades, which only get
    /// synthetic in-hour votes).
    pub story: Option<dlm_data::Cascade>,
    topology: Arc<Topology>,
    /// Cumulative counted votes the server must report next.
    counted: u64,
}

/// Hop groups of one initiator, plus a membership table.
#[derive(Debug)]
struct Topology {
    members: Vec<usize>,
    in_group: Vec<bool>,
}

/// The complete seeded stream of one run.
#[derive(Debug)]
pub struct Plan {
    /// Workload.
    pub workload: Workload,
    /// Seed.
    pub seed: u64,
    /// The world every backend serves.
    pub world: Arc<SyntheticWorld>,
    /// Cascades preloaded in set-up (forecast targets).
    pub warm: Vec<Cascade>,
    /// Refit-storm's fresh cascades, each opened and closed once.
    pub fresh: Vec<Cascade>,
    /// Set-up preload: opens + one catch-up close per warm cascade,
    /// closed loop.
    pub setup: Phase,
    /// The nominal-rate phase the latency and CPU metrics come from.
    pub nominal: Phase,
    /// Closed-loop samples of the classes the mix sends too rarely for
    /// a stable tail.
    pub probe: Phase,
    /// Closed-loop forecasts (two per warm cascade) for Eq.-8 scoring.
    pub check: Phase,
    /// Ladder rungs above the nominal rate, ascending, each with a
    /// stand-by twin at the same rate that runs only when the rung
    /// fails: a stall of the shared host during one short rung should
    /// not end the climb.
    pub ladder: Vec<(Phase, Phase)>,
}

/// How long the nominal phase and each ladder rung run, from the
/// `--seconds` budget.
#[must_use]
pub fn phase_seconds(seconds: f64) -> (f64, f64) {
    let nominal = NOMINAL_SHARE * seconds;
    (nominal, (seconds - nominal) / EXPECTED_RUNGS)
}

/// Generates the world the servers build with their default flags.
///
/// # Panics
///
/// If world generation fails, which the default configuration never
/// does.
#[must_use]
pub fn world() -> SyntheticWorld {
    SyntheticWorld::generate(WorldConfig::default().scaled(WORLD_SCALE))
        .expect("the default world generates")
}

struct Generator<'w> {
    world: &'w SyntheticWorld,
    topologies: HashMap<usize, Arc<Topology>>,
    rng: Rng,
    seed: u64,
    next_id: u64,
    fresh: usize,
    /// Refit-storm's fresh cascades, in stream order.
    closed: Vec<Cascade>,
    binary: bool,
}

impl Generator<'_> {
    fn topology(&mut self, initiator: usize) -> Arc<Topology> {
        let world = self.world;
        Arc::clone(self.topologies.entry(initiator).or_insert_with(|| {
            let groups = hop_groups(world.graph(), initiator, MAX_HOPS)
                .expect("story initiators reach other users");
            let mut in_group = vec![false; world.user_count()];
            let members: Vec<usize> = groups.into_iter().flatten().collect();
            for &u in &members {
                in_group[u] = true;
            }
            Arc::new(Topology { members, in_group })
        }))
    }

    /// Simulates catalog entry `slot` with preset entry `preset` of
    /// [`PRESETS`]: a story from initiator ordinal `slot`, on seeds drawn
    /// from the run seed until it is big enough, its first hour counts a
    /// vote, and its first [`CLOSE_DEPTH`] hours count at least three (so
    /// every lineup model can fit the caught-up observation). An
    /// initiator that never gets there in [`ATTEMPTS`] seeds hands over
    /// to the next ordinal.
    fn story_cascade(&mut self, id: String, slot: usize, preset: usize) -> Cascade {
        let (preset, min_votes) = PRESETS[preset];
        let preset = &StoryPreset::all()[preset];
        for ordinal in (slot..).map(|s| s % INITIATORS) {
            let mut preset = preset.clone();
            preset.id = ordinal as u32 + 1;
            for _ in 0..ATTEMPTS {
                let story = simulate_story(
                    self.world,
                    &preset,
                    SimulationConfig {
                        hours: STORY_HOURS,
                        substeps: 2,
                        seed: self.rng.next_u64(),
                    },
                )
                .expect("story simulation");
                let topology = self.topology(story.initiator());
                let counted_within = |hours: u32| {
                    story
                        .votes_within(hours)
                        .iter()
                        .filter(|v| topology.in_group[v.voter])
                        .count()
                };
                if story.vote_count() >= min_votes
                    && counted_within(1) >= 1
                    && counted_within(CLOSE_DEPTH) >= 3
                {
                    return Cascade {
                        id,
                        initiator: story.initiator(),
                        story: Some(story),
                        topology,
                        counted: 0,
                    };
                }
            }
        }
        unreachable!("the ordinal cycle never ends")
    }

    fn bare_cascade(&mut self, id: String, slot: usize) -> Cascade {
        let initiator = self
            .world
            .story_initiator(slot % INITIATORS)
            .expect("initiator ordinal in range");
        Cascade {
            id,
            initiator,
            story: None,
            topology: self.topology(initiator),
            counted: 0,
        }
    }

    fn request(
        &mut self,
        at: f64,
        class: Class,
        cascade: &str,
        bytes: Vec<u8>,
        expect: Expect,
    ) -> Request {
        self.next_id += 1;
        Request {
            id: self.next_id,
            at,
            class,
            cascade: cascade.to_owned(),
            bytes,
            expect,
        }
    }

    fn open(&mut self, cascade: &Cascade, at: f64) -> Request {
        let line = format!(
            r#"{{"type":"open","cascade":"{}","initiator":{},"max_hops":{MAX_HOPS},"horizon":{HORIZON}}}"#,
            cascade.id, cascade.initiator
        );
        let bytes = encode_line(&line, self.binary);
        self.request(at, Class::Open, &cascade.id, bytes, Expect::Ok)
    }

    /// One ingest delivering every simulated vote of the first
    /// [`CLOSE_DEPTH`] hours with `now` at the end of that hour: closes
    /// hours `1..=CLOSE_DEPTH` and refits the lineup on each.
    fn close(&mut self, cascade: &mut Cascade, at: f64) -> Request {
        let story = cascade.story.as_ref().expect("closes replay a story");
        let votes: Vec<(u64, usize)> = story
            .votes_within(CLOSE_DEPTH)
            .iter()
            .map(|v| (v.timestamp, v.voter))
            .collect();
        let now = story.submit_time() + u64::from(CLOSE_DEPTH) * 3600;
        cascade.counted += votes
            .iter()
            .filter(|&&(_, u)| cascade.topology.in_group[u])
            .count() as u64;
        let bytes = encode_ingest(&cascade.id, &votes, Some(now), self.binary);
        let expect = Expect::Counted {
            counted: cascade.counted,
            closed: Some(CLOSE_DEPTH),
        };
        self.request(at, Class::Close, &cascade.id, bytes, expect)
    }

    /// 1–3 synthetic votes inside the cascade's open hour `hour`
    /// (1-based), mostly by members of its hop groups; `now` (when
    /// drawn) stays inside that hour, so nothing closes.
    fn in_hour(&mut self, cascade: &mut Cascade, hour: u32, at: f64) -> Request {
        let start = SIMULATED_SUBMIT_TIME + u64::from(hour - 1) * 3600;
        let n = 1 + self.rng.below(3) as usize;
        let mut votes = Vec::with_capacity(n);
        for _ in 0..n {
            let voter = if self.rng.unit() < 0.85 {
                let members = &cascade.topology.members;
                members[self.rng.below(members.len() as u64) as usize]
            } else {
                self.rng.below(self.world.user_count() as u64) as usize
            };
            votes.push((start + self.rng.below(3600), voter));
            if cascade.topology.in_group[voter] {
                cascade.counted += 1;
            }
        }
        let now = (self.rng.unit() < 0.5).then(|| start + self.rng.below(3600));
        let bytes = encode_ingest(&cascade.id, &votes, now, self.binary);
        let expect = Expect::Counted {
            counted: cascade.counted,
            closed: None,
        };
        self.request(at, Class::Ingest, &cascade.id, bytes, expect)
    }

    /// A forecast on a seeded warm cascade from a seeded observation
    /// window (`through` 2 or 3) for one or two of the next few hours.
    fn forecast(&mut self, warm: &[Cascade], at: f64) -> Request {
        let target = self.rng.below(warm.len() as u64) as usize;
        let through = 2 + self.rng.below(u64::from(CLOSE_DEPTH) - 1) as u32;
        let first = through + 1 + self.rng.below(2) as u32;
        let hours: Vec<u32> = if self.rng.unit() < 0.5 {
            vec![first]
        } else {
            vec![first, first + 1 + self.rng.below(2) as u32]
        };
        self.forecast_request(&warm[target].id, target, through, hours, at)
    }

    fn forecast_request(
        &mut self,
        id: &str,
        warm: usize,
        through: u32,
        hours: Vec<u32>,
        at: f64,
    ) -> Request {
        let list: Vec<String> = hours.iter().map(ToString::to_string).collect();
        let line = format!(
            r#"{{"type":"forecast","cascade":"{id}","hours":[{}],"through":{through}}}"#,
            list.join(",")
        );
        let bytes = encode_line(&line, self.binary);
        let expect = Expect::Forecast {
            warm,
            through,
            hours,
            compare: false,
            score: false,
        };
        self.request(at, Class::Forecast, id, bytes, expect)
    }
}

/// A JSON request as wire bytes: a line, or a tagged frame.
fn encode_line(line: &str, binary: bool) -> Vec<u8> {
    if binary {
        wire::encode_frame(&wire::encode_json_payload(line))
    } else {
        let mut bytes = line.as_bytes().to_vec();
        bytes.push(b'\n');
        bytes
    }
}

/// An `ingest` as wire bytes: the compact binary frame, or a JSON line.
fn encode_ingest(cascade: &str, votes: &[(u64, usize)], now: Option<u64>, binary: bool) -> Vec<u8> {
    if binary {
        return wire::encode_frame(&wire::encode_ingest_payload(cascade, votes, now));
    }
    let mut line = format!(r#"{{"type":"ingest","cascade":"{cascade}","votes":["#);
    for (i, (ts, voter)) in votes.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(line, "{sep}[{ts},{voter}]");
    }
    line.push(']');
    if let Some(now) = now {
        let _ = write!(line, r#","now":{now}"#);
    }
    line.push_str("}\n");
    line.into_bytes()
}

impl Plan {
    /// Generates the complete stream of one run.
    #[must_use]
    pub fn generate(workload: Workload, seed: u64, seconds: f64) -> Self {
        Self::generate_in(Arc::new(world()), workload, seed, seconds)
    }

    /// [`Plan::generate`] on an already generated world.
    #[must_use]
    pub fn generate_in(
        world: Arc<SyntheticWorld>,
        workload: Workload,
        seed: u64,
        seconds: f64,
    ) -> Self {
        let mut gen = Generator {
            world: &world,
            topologies: HashMap::new(),
            rng: Rng::derive(seed, workload as u64),
            seed,
            next_id: 0,
            fresh: 0,
            closed: Vec::new(),
            binary: workload.binary(),
        };

        // Set-up: open and catch up every warm cascade, alternating
        // connections, closed loop.
        let mut warm: Vec<Cascade> = (0..WARM_CASCADES)
            .map(|i| gen.story_cascade(format!("w{seed}-{i}"), i, 0))
            .collect();
        let mut setup = Phase::new("setup", false, 0.0, 1.0);
        for (i, cascade) in warm.iter_mut().enumerate() {
            let open = gen.open(cascade, 0.0);
            let close = gen.close(cascade, 0.0);
            setup.conns[i % 2].extend([open, close]);
        }

        let shape = workload.shape();
        let (nominal_seconds, rung_seconds) = phase_seconds(seconds);
        let mut nominal = Phase::new("nominal", true, nominal_seconds, 1.0);
        let mut active: [Vec<Cascade>; 2] = [Vec::new(), Vec::new()];
        gen.fill(&mut nominal, &shape, &mut warm, &mut active);
        // A seeded sample of the nominal forecasts is bit-compared.
        gen.sample(&mut nominal, NOMINAL_SAMPLE);

        let mut probe = Phase::new("probe", false, 0.0, 1.0);
        gen.fill_probe(&mut probe, &shape, &mut warm);

        // The check: every warm cascade forecast from both observation
        // windows over the rest of its simulated hours, scored by Eq. 8;
        // a seeded sample of these is bit-compared too.
        let mut check = Phase::new("check", false, 0.0, 1.0);
        for (i, cascade) in warm.iter().enumerate() {
            for through in 2..=CLOSE_DEPTH {
                let mut request = gen.forecast_request(
                    &cascade.id,
                    i,
                    through,
                    (through + 1..=STORY_HOURS).collect(),
                    0.0,
                );
                if let Expect::Forecast { score, .. } = &mut request.expect {
                    *score = true;
                }
                check.conns[i % 2].push(request);
            }
        }
        gen.sample(&mut check, CHECK_SAMPLE);

        let ladder = shape
            .ladder
            .iter()
            .enumerate()
            .map(|(k, &multiple)| {
                let mut rung = Phase::new(&format!("rung{}", k + 1), true, rung_seconds, multiple);
                gen.fill(&mut rung, &shape, &mut warm, &mut active);
                // The twin works on copies of the live cascades: later
                // rungs must not depend on cascades it opens.
                let mut retry = Phase::new(
                    &format!("rung{}-retry", k + 1),
                    true,
                    rung_seconds,
                    multiple,
                );
                gen.fill(&mut retry, &shape, &mut warm, &mut active.clone());
                for phase in [&mut rung, &mut retry] {
                    // Votes a skipped twin never delivered would shift
                    // every later running count: in-hour answers on the
                    // ladder are checked for success only.
                    for r in phase
                        .conns
                        .iter_mut()
                        .flatten()
                        .filter(|r| r.class == Class::Ingest)
                    {
                        r.expect = Expect::Ok;
                    }
                }
                (rung, retry)
            })
            .collect();
        Self {
            workload,
            seed,
            world: Arc::clone(&world),
            fresh: std::mem::take(&mut gen.closed),
            warm,
            setup,
            nominal,
            probe,
            check,
            ladder,
        }
    }

    /// Every phase in run order (the ladder last, so a failing rung's
    /// backlog cannot leak into a measured phase).
    pub fn phases(&self) -> impl Iterator<Item = &Phase> {
        [&self.setup, &self.nominal, &self.probe, &self.check]
            .into_iter()
            .chain(self.ladder.iter().flat_map(|(rung, retry)| [rung, retry]))
    }

    /// FNV-1a hash over every request's connection, time, and bytes —
    /// printed with the results so two runs can show they sent the same
    /// stream.
    #[must_use]
    pub fn stream_hash(&self) -> u64 {
        let mut hash = Fnv::new();
        for phase in self.phases() {
            hash.write(phase.name.as_bytes());
            for (c, requests) in phase.conns.iter().enumerate() {
                for request in requests {
                    hash.write(&[c as u8]);
                    hash.write(&request.at.to_bits().to_le_bytes());
                    hash.write(&request.bytes);
                }
            }
        }
        hash.finish()
    }

    /// A warm cascade's simulated story.
    ///
    /// # Panics
    ///
    /// Never for a warm index: warm cascades always replay a story.
    #[must_use]
    pub fn warm_story(&self, warm: usize) -> &dlm_data::Cascade {
        self.warm[warm]
            .story
            .as_ref()
            .expect("warm cascades replay a story")
    }
}

impl Generator<'_> {
    /// Marks `n` seeded draws of the phase's forecasts for the bit-exact
    /// comparison.
    fn sample(&mut self, phase: &mut Phase, n: usize) {
        let forecasts: Vec<(usize, usize)> = (0..2)
            .flat_map(|c| {
                phase.conns[c]
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.class == Class::Forecast)
                    .map(move |(i, _)| (c, i))
            })
            .collect();
        for _ in 0..n.min(forecasts.len()) {
            let (c, i) = forecasts[self.rng.below(forecasts.len() as u64) as usize];
            if let Expect::Forecast { compare, .. } = &mut phase.conns[c][i].expect {
                *compare = true;
            }
        }
    }

    /// Schedules one open-loop phase at `phase.multiple` × the nominal
    /// rates, each connection on its own evenly spaced slot grid
    /// (offset by half a slot from the other).
    fn fill(
        &mut self,
        phase: &mut Phase,
        shape: &Shape,
        warm: &mut [Cascade],
        active: &mut [Vec<Cascade>; 2],
    ) {
        let m = phase.multiple;
        let seconds = phase.seconds;
        match shape.primary {
            Class::Close => {
                // Connection 0: a fresh cascade per slot, opened and
                // closed back to back. Connection 1: warm forecasts and
                // in-hour votes beside them.
                for at in slots(m * shape.close_rps, seconds, 0.0) {
                    self.fresh += 1;
                    let id = format!("f{}-{}", self.seed, self.fresh);
                    let mut cascade = self.story_cascade(
                        id,
                        WARM_CASCADES + self.fresh,
                        self.fresh % PRESETS.len(),
                    );
                    let open = self.open(&cascade, at);
                    let close = self.close(&mut cascade, at);
                    phase.conns[0].extend([open, close]);
                    self.closed.push(cascade);
                }
                self.reads(&mut phase.conns[1], shape, m, seconds, warm, None);
            }
            Class::Forecast => {
                for (c, conn) in phase.conns.iter_mut().enumerate() {
                    self.reads(conn, &scaled(shape, 0.5), m, seconds, warm, Some(c));
                }
            }
            Class::Ingest | Class::Open => {
                for (c, conn) in phase.conns.iter_mut().enumerate() {
                    for at in slots(m * 0.5 * shape.ingest_rps, seconds, 0.5 * c as f64) {
                        if active[c].is_empty() || self.rng.unit() < shape.open_share {
                            self.fresh += 1;
                            let cascade = self
                                .bare_cascade(format!("v{}-{}", self.seed, self.fresh), self.fresh);
                            conn.push(self.open(&cascade, at));
                            active[c].push(cascade);
                            // Votes go to the most recent opens: a bounded
                            // live set per connection.
                            if active[c].len() > 16 {
                                active[c].remove(0);
                            }
                        } else {
                            let k = self.rng.below(active[c].len() as u64) as usize;
                            conn.push(self.in_hour(&mut active[c][k], 1, at));
                        }
                    }
                }
            }
        }
    }

    /// Forecasts and in-hour votes on warm cascades over one slot grid.
    /// In-hour votes go to the warm cascades this connection owns
    /// (`owner`; `None` owns all), so each cascade's votes — and its
    /// running `counted` — arrive in plan order.
    fn reads(
        &mut self,
        conn: &mut Vec<Request>,
        shape: &Shape,
        m: f64,
        seconds: f64,
        warm: &mut [Cascade],
        owner: Option<usize>,
    ) {
        let rate = m * (shape.forecast_rps + shape.ingest_rps);
        let forecast_share = shape.forecast_rps / (shape.forecast_rps + shape.ingest_rps);
        let owned: Vec<usize> = (0..warm.len())
            .filter(|i| owner.is_none_or(|c| i % 2 == c))
            .collect();
        for at in slots(rate, seconds, 0.5 * owner.unwrap_or(0) as f64) {
            if self.rng.unit() < forecast_share {
                conn.push(self.forecast(warm, at));
            } else {
                let target = owned[self.rng.below(owned.len() as u64) as usize];
                conn.push(self.in_hour(&mut warm[target], CLOSE_DEPTH + 1, at));
            }
        }
    }

    /// The closed-loop probe: forecasts and in-hour votes on warm
    /// cascades, split over both connections (votes by cascade parity,
    /// as in [`Generator::reads`]).
    fn fill_probe(&mut self, probe: &mut Phase, shape: &Shape, warm: &mut [Cascade]) {
        for k in 0..shape.probe_forecasts {
            let request = self.forecast(warm, 0.0);
            probe.conns[k % 2].push(request);
        }
        for _ in 0..shape.probe_ingests {
            let target = self.rng.below(warm.len() as u64) as usize;
            let request = self.in_hour(&mut warm[target], CLOSE_DEPTH + 1, 0.0);
            probe.conns[target % 2].push(request);
        }
    }
}

fn scaled(shape: &Shape, factor: f64) -> Shape {
    Shape {
        forecast_rps: shape.forecast_rps * factor,
        ingest_rps: shape.ingest_rps * factor,
        close_rps: shape.close_rps * factor,
        ..*shape
    }
}

/// Evenly spaced send times at `rate` per second over `seconds`, the
/// grid shifted by `offset` slots.
fn slots(rate: f64, seconds: f64, offset: f64) -> impl Iterator<Item = f64> {
    let step = 1.0 / rate.max(1e-9);
    (0..)
        .map(move |k| (k as f64 + offset) * step)
        .take_while(move |&t| t < seconds)
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
