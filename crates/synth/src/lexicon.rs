//! Domain lexicons: the phrase inventory creatives are built from.
//!
//! Each [`Domain`] models one advertising vertical (flights, hotels, …) with
//! keywords, headline choices, and line templates containing *slots*. A slot
//! draws from a pool of interchangeable [`Phrase`]s — "find cheap" vs "get
//! discounts" vs "compare fares" — each carrying a **ground-truth salience**:
//! how strongly seeing that phrase pushes a user toward clicking. Positive
//! phrases are offers and trust markers; negative ones are the fine print
//! advertisers sometimes have to include. Salience is the hidden quantity
//! the micro-browsing classifier ultimately has to recover from CTR data.
//!
//! Three design decisions make the corpus behave like the paper's:
//!
//! * **Positional diversity.** Templates place the same pools at different
//!   line/token positions, so position and phrase effects are identifiable
//!   and Figure 3's curves have support everywhere.
//! * **Context sparsity.** Neutral *decor* slots ("today" / "right now" /
//!   "online") vary per adgroup. Within an adgroup they are constant — they
//!   cancel out of every pair — but across adgroups they multiply the
//!   contexts around each salient phrase, so position-blind n-gram features
//!   cannot cheaply read position off their surroundings.
//! * **Query-dependent salience.** Some phrase texts appear in several
//!   domains with *different* salience ("compare prices" attracts hotel
//!   shoppers, bores insurance shoppers). A position-independent term
//!   statistic pools those contexts and muddies; a rewrite statistic is
//!   keyed by the phrase *pair*, which rarely crosses domains — this is the
//!   mechanism behind the paper's finding that rewrite features beat bare
//!   term features.

/// A candidate phrase for a slot, with its ground-truth salience.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phrase {
    /// The surface text (already lowercase; the tokenizer normalizes
    /// anyway).
    pub text: &'static str,
    /// Ground-truth click-pull of the phrase when examined, *in this
    /// domain*; roughly in [−1.5, 1.5] logits.
    pub salience: f64,
}

const fn p(text: &'static str, salience: f64) -> Phrase {
    Phrase { text, salience }
}

/// A named pool of interchangeable phrases.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    /// Slot name referenced by templates as `{name}`.
    pub name: &'static str,
    /// The options an advertiser picks among.
    pub options: &'static [Phrase],
    /// Decor pools hold neutral phrasing chosen per adgroup and (almost)
    /// never rewritten between variants; they exist to diversify contexts.
    pub decor: bool,
}

const fn pool(name: &'static str, options: &'static [Phrase]) -> Pool {
    Pool {
        name,
        options,
        decor: false,
    }
}

const fn decor(name: &'static str, options: &'static [Phrase]) -> Pool {
    Pool {
        name,
        options,
        decor: true,
    }
}

/// One advertising vertical.
#[derive(Debug, Clone, Copy)]
pub struct Domain {
    /// Vertical name (reporting only).
    pub name: &'static str,
    /// Keywords adgroups in this domain target.
    pub keywords: &'static [&'static str],
    /// Line-1 (headline) templates; `{brand}` is decor, `{tagline}` is a
    /// salient slot, so headline edits carry signal at line-1 positions.
    pub line1: &'static [&'static str],
    /// Line-2 templates; `{slot}` markers draw from [`Domain::pools`].
    pub line2: &'static [&'static str],
    /// Line-3 templates.
    pub line3: &'static [&'static str],
    /// The slot pools.
    pub pools: &'static [Pool],
}

impl Domain {
    /// Find a pool by name (templates are validated in tests, so a miss is
    /// a programmer error).
    pub fn pool(&self, name: &str) -> &Pool {
        self.pools
            .iter()
            .find(|pool| pool.name == name)
            .unwrap_or_else(|| panic!("domain {} has no pool {name}", self.name))
    }
}

static WHEN: &[Phrase] = &[
    p("today", 0.0),
    p("right now", 0.0),
    p("online", 0.0),
    p("this week", 0.0),
    p("in seconds", 0.0),
    p("anytime", 0.0),
    p("tonight", 0.0),
    p("this season", 0.0),
    p("instantly", 0.0),
    p("every day", 0.0),
    p("on the go", 0.0),
    p("around the clock", 0.0),
];

static AUDIENCE: &[Phrase] = &[
    p("for travelers", 0.0),
    p("for families", 0.0),
    p("for everyone", 0.0),
    p("for members", 0.0),
    p("for you", 0.0),
    p("for regulars", 0.0),
    p("for new customers", 0.0),
    p("for planners", 0.0),
    p("for weekenders", 0.0),
    p("for commuters", 0.0),
];

static SHOPPERS: &[Phrase] = &[
    p("for runners", 0.0),
    p("for athletes", 0.0),
    p("for beginners", 0.0),
    p("for pros", 0.0),
    p("for everyday wear", 0.0),
    p("for trail days", 0.0),
    p("for race day", 0.0),
    p("for the gym", 0.0),
    p("for city streets", 0.0),
    p("for long miles", 0.0),
];

/// The built-in verticals.
pub static DOMAINS: &[Domain] = &[
    Domain {
        name: "flights",
        keywords: &[
            "cheap flights",
            "flights to new york",
            "airline tickets",
            "last minute flights",
            "direct flights",
            "international flights",
        ],
        line1: &["{brand}", "{brand} {tagline}", "{tagline} {brand}"],
        line2: &[
            "{when} {offer} {audience} flights to {city}",
            "fly to {city} {when} {offer}",
            "{offer} {when} on all {city} routes",
            "book {city} flights {audience} {offer} {when}",
            "{audience} {offer} {when} flying to {city}",
            "flights to {city} so {when} {offer}",
        ],
        line3: &[
            "{trust} {when} {perk}",
            "{perk} {audience} {trust}",
            "enjoy {when} {perk} {audience} {trust}",
            "{audience} {trust} {when} {perk}",
        ],
        pools: &[
            pool(
                "offer",
                &[
                    p("find cheap", 0.55),
                    p("get discounts", 0.95),
                    p("save 20%", 1.30),
                    p("compare fares", 0.15),
                    p("browse deals", 0.35),
                    p("view schedules", -0.25),
                    p("check availability", -0.45),
                    // Query-dependent: price comparison bores flight buyers
                    // (they expect fare search anyway) but attracts hotel
                    // shoppers — the same text lives in the hotels pool with
                    // positive salience.
                    p("compare prices", -0.30),
                ],
            ),
            pool(
                "city",
                &[
                    p("new york", 0.0),
                    p("london", 0.0),
                    p("tokyo", 0.0),
                    p("paris", 0.0),
                    p("rome", 0.0),
                    p("sydney", 0.0),
                ],
            ),
            pool(
                "perk",
                &[
                    p("more legroom", 0.85),
                    p("free checked bags", 1.05),
                    p("priority boarding", 0.45),
                    p("standard seating", -0.35),
                    p("basic fare rules", -0.75),
                    p("24 hour support", 0.20),
                ],
            ),
            pool(
                "trust",
                &[
                    p("no reservation costs", 0.90),
                    p("great rates", 0.50),
                    p("instant confirmation", 0.60),
                    p("fees may apply", -1.10),
                    p("restrictions apply", -0.95),
                    p("free cancellation", 0.35),
                    // "fees"/"booking" cut both ways at the unigram level.
                    p("no booking fees", 0.80),
                    p("booking limits apply", -0.60),
                ],
            ),
            decor("when", WHEN),
            decor("audience", AUDIENCE),
            decor(
                "brand",
                &[
                    p("xyz airlines", 0.0),
                    p("skyhop travel", 0.0),
                    p("aerolink", 0.0),
                    p("jetset fares", 0.0),
                    p("cloudnine air", 0.0),
                    p("swift wings travel", 0.0),
                ],
            ),
            pool(
                "tagline",
                &[
                    p("lowest fares guaranteed", 0.90),
                    p("award winning service", 0.50),
                    p("a better way to fly", 0.20),
                    p("now with more routes", 0.05),
                    p("terms and conditions apply", -0.70),
                ],
            ),
        ],
    },
    Domain {
        name: "hotels",
        keywords: &[
            "hotel deals",
            "cheap hotels",
            "luxury hotels",
            "hotels near me",
            "weekend hotel offers",
        ],
        line1: &["{brand}", "{brand} {tagline}", "{tagline} {brand}"],
        line2: &[
            "{when} {offer} {audience} {tier} hotels",
            "{tier} rooms {when} {offer}",
            "book {tier} stays {audience} {offer}",
            "{offer} {when} on {tier} rooms",
            "{tier} stays so {audience} {offer}",
        ],
        line3: &[
            "{amenity} {when} {policy}",
            "{policy} {audience} {amenity}",
            "{when} {amenity} {audience} {policy}",
        ],
        pools: &[
            pool(
                "offer",
                &[
                    p("save big", 1.10),
                    p("pay less", 0.80),
                    p("earn rewards", 0.40),
                    // Query-dependent overlaps (see flights/insurance).
                    p("compare prices", 0.65),
                    p("see listings", -0.30),
                    p("join the waitlist", -0.85),
                ],
            ),
            pool(
                "tier",
                &[
                    p("luxury", 0.55),
                    p("boutique", 0.35),
                    p("budget", -0.15),
                    p("standard", -0.05),
                ],
            ),
            pool(
                "amenity",
                &[
                    p("free breakfast", 1.15),
                    p("rooftop pool", 0.75),
                    p("free wifi", 0.55),
                    p("paid parking", -0.65),
                    p("24 hour support", 0.70),
                ],
            ),
            pool(
                "policy",
                &[
                    p("free cancellation", 1.25),
                    p("no hidden fees", 0.85),
                    p("great rates", -0.10),
                    p("non refundable rates", -1.20),
                    // Deliberate unigram ambiguity: "resort"/"fees" appear
                    // in phrases of opposite salience, so only phrase-level
                    // features resolve the direction.
                    p("resort fees waived", 0.70),
                    p("resort fees apply", -0.90),
                ],
            ),
            decor("when", WHEN),
            decor("audience", AUDIENCE),
            decor(
                "brand",
                &[
                    p("staywell hotels", 0.0),
                    p("roomfinder", 0.0),
                    p("innsight", 0.0),
                    p("suite spot", 0.0),
                    p("nightcap stays", 0.0),
                    p("cozyquarters", 0.0),
                ],
            ),
            pool(
                "tagline",
                &[
                    p("best price promise", 0.85),
                    p("trusted by millions", 0.55),
                    p("sleep happy tonight", 0.25),
                    p("rooms in every city", 0.0),
                    p("booking fees may apply", -0.75),
                ],
            ),
        ],
    },
    Domain {
        name: "shoes",
        keywords: &[
            "running shoes",
            "buy sneakers",
            "trail shoes",
            "discount shoes",
            "marathon shoes",
        ],
        line1: &["{brand}", "{brand} {tagline}", "{tagline} {brand}"],
        line2: &[
            "{deal} {when} on {style} shoes",
            "shop {style} pairs {when} {deal}",
            "{style} collection {crowd} {deal} {when}",
            "{when} {deal} {crowd} on every {style} pair",
            "{style} shoes {crowd} {when} {deal}",
        ],
        line3: &[
            "{shipping} {when} {returns}",
            "{returns} {crowd} {shipping}",
            "{when} {shipping} {crowd} {returns}",
        ],
        pools: &[
            pool(
                "deal",
                &[
                    p("save 30%", 1.35),
                    p("get 2 for 1", 1.05),
                    p("find bargains", 0.45),
                    p("browse styles", -0.10),
                    p("join the waitlist", -0.85),
                    // Hotels' best offer barely moves sneaker shoppers.
                    p("save big", 0.25),
                ],
            ),
            pool(
                "style",
                &[
                    p("running", 0.10),
                    p("trail", 0.05),
                    p("retro", 0.15),
                    p("training", 0.0),
                    p("court", 0.0),
                ],
            ),
            pool(
                "shipping",
                &[
                    p("free shipping", 1.20),
                    p("next day delivery", 0.95),
                    p("flat rate shipping", -0.20),
                    p("in store pickup", 0.10),
                ],
            ),
            pool(
                "returns",
                &[
                    p("free returns", 1.00),
                    p("90 day returns", 0.60),
                    p("final sale only", -1.25),
                    p("restrictions apply", -0.60),
                    // "returns"/"fee" ambiguity at the unigram level.
                    p("returns fee waived", 0.55),
                    p("returns fee applies", -0.85),
                ],
            ),
            decor("when", WHEN),
            decor("crowd", SHOPPERS),
            decor(
                "brand",
                &[
                    p("stride store", 0.0),
                    p("solemates", 0.0),
                    p("runfast gear", 0.0),
                    p("peak footwear", 0.0),
                    p("lacehub", 0.0),
                    p("tempo kicks", 0.0),
                ],
            ),
            pool(
                "tagline",
                &[
                    p("official gear outlet", 0.60),
                    p("lightest shoes around", 0.80),
                    p("new arrivals weekly", 0.30),
                    p("styles for every run", 0.05),
                    p("clearance items excluded", -0.80),
                ],
            ),
        ],
    },
    Domain {
        name: "insurance",
        keywords: &[
            "car insurance quotes",
            "cheap car insurance",
            "home insurance",
            "bundle insurance",
            "renters insurance",
        ],
        line1: &["{brand}", "{brand} {tagline}", "{tagline} {brand}"],
        line2: &[
            "{when} {action} in {time}",
            "{action} {when} and start saving",
            "drivers {when} {action} {audience} in {time}",
            "{audience} {action} {when} in {time}",
            "{action} {audience} in {time} flat",
        ],
        line3: &[
            "{benefit} {when} {claim}",
            "{claim} {audience} {benefit}",
            "{when} {benefit} {audience} {claim}",
        ],
        pools: &[
            pool(
                "action",
                &[
                    p("get a free quote", 1.15),
                    p("switch and save", 0.90),
                    p("compare rates", 0.50),
                    p("request information", -0.40),
                    // Comparison shopping reads as hassle for insurance.
                    p("compare prices", -0.55),
                ],
            ),
            pool(
                "time",
                &[
                    p("2 minutes", 0.70),
                    p("5 minutes", 0.45),
                    p("under an hour", -0.15),
                    p("one call", 0.20),
                ],
            ),
            pool(
                "benefit",
                &[
                    p("accident forgiveness", 0.85),
                    p("multi car discounts", 0.75),
                    p("standard coverage", -0.25),
                    p("fees may apply", -0.80),
                ],
            ),
            pool(
                "claim",
                &[
                    p("24/7 claims", 0.80),
                    p("fast claims", 0.65),
                    p("business hours claims", -0.55),
                    p("24 hour support", 0.95),
                ],
            ),
            decor("when", WHEN),
            decor("audience", AUDIENCE),
            decor(
                "brand",
                &[
                    p("safedrive insurance", 0.0),
                    p("coverwise", 0.0),
                    p("shieldrate", 0.0),
                    p("polyquote", 0.0),
                    p("suretybay", 0.0),
                    p("harborsure", 0.0),
                ],
            ),
            pool(
                "tagline",
                &[
                    p("rated a+ for claims", 0.85),
                    p("drivers save an average of $400", 1.00),
                    p("coverage you can count on", 0.45),
                    p("serving your state", 0.05),
                    p("not available everywhere", -0.70),
                ],
            ),
        ],
    },
];

/// All `{slot}` names referenced by a template string.
pub fn template_slots(template: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = template;
    while let Some(open) = rest.find('{') {
        let Some(close_rel) = rest[open..].find('}') else {
            break;
        };
        out.push(&rest[open + 1..open + close_rel]);
        rest = &rest[open + close_rel + 1..];
    }
    out
}

/// Procedurally expanded decor options for a decor pool.
///
/// The static options are combined with modifier × noun products so each
/// decor pool offers *hundreds* of neutral phrasings. This emulates
/// web-scale context sparsity: an n-gram that straddles a salient slot and
/// its decor neighbour almost never recurs across adgroups, so
/// position-blind context features cannot generalize — exactly the data
/// regime in which the paper's position-aware models pay off.
pub fn decor_options(pool: &Pool) -> Vec<String> {
    debug_assert!(
        pool.decor,
        "decor_options called on non-decor pool {}",
        pool.name
    );
    let mut out: Vec<String> = pool.options.iter().map(|p| p.text.to_string()).collect();
    match pool.name {
        "when" => {
            static HEADS: &[&str] = &[
                "today",
                "tonight",
                "right now",
                "any day",
                "all year",
                "by morning",
                "after work",
                "before noon",
                "at midnight",
                "at dawn",
                "on weekdays",
                "on holidays",
                "in minutes",
                "in moments",
                "over lunch",
                "past midnight",
            ];
            static TAILS: &[&str] = &[
                "",
                "guaranteed",
                "no waiting",
                "no hassle",
                "worldwide",
                "locally",
                "from home",
                "from anywhere",
                "on mobile",
                "on any device",
                "with one tap",
                "without signup",
                "at no charge",
                "while supplies last",
            ];
            for h in HEADS {
                for t in TAILS {
                    if t.is_empty() {
                        out.push((*h).to_string());
                    } else {
                        out.push(format!("{h} {t}"));
                    }
                }
            }
        }
        "audience" | "crowd" => {
            static MODS: &[&str] = &[
                "busy",
                "smart",
                "modern",
                "frequent",
                "first time",
                "seasoned",
                "young",
                "everyday",
                "serious",
                "casual",
                "savvy",
                "weekend",
                "city",
                "local",
                "loyal",
                "veteran",
                "active",
                "remote",
            ];
            static NOUNS: &[&str] = &[
                "travelers",
                "families",
                "shoppers",
                "planners",
                "commuters",
                "explorers",
                "buyers",
                "customers",
                "members",
                "couples",
                "students",
                "professionals",
                "locals",
                "visitors",
                "adventurers",
                "browsers",
            ];
            for m in MODS {
                for n in NOUNS {
                    out.push(format!("for {m} {n}"));
                }
            }
        }
        "brand" => {
            // Brands are adgroup identities: procedurally combined so the
            // n-grams straddling a brand and its tagline almost never recur
            // across adgroups.
            static FIRST: &[&str] = &[
                "north", "blue", "bright", "prime", "urban", "swift", "golden", "silver", "summit",
                "valley", "cedar", "atlas",
            ];
            static SECOND: &[&str] = &[
                "line", "point", "nest", "field", "works", "port", "gate", "crest", "haven",
                "forge",
            ];
            static SUFFIX: &[&str] = &["", "co", "group", "labs", "hq"];
            for f in FIRST {
                for s in SECOND {
                    for x in SUFFIX {
                        if x.is_empty() {
                            out.push(format!("{f}{s}"));
                        } else {
                            out.push(format!("{f}{s} {x}"));
                        }
                    }
                }
            }
        }
        other => {
            debug_assert!(false, "unknown decor pool {other}");
        }
    }
    out
}

/// Render a template, substituting each `{slot}` with the chosen phrase
/// text via `choose(slot_name)`.
pub fn render_template(template: &str, mut choose: impl FnMut(&str) -> String) -> String {
    let mut out = String::with_capacity(template.len() + 16);
    let mut rest = template;
    while let Some(open) = rest.find('{') {
        out.push_str(&rest[..open]);
        let Some(close_rel) = rest[open..].find('}') else {
            out.push_str(&rest[open..]);
            return out;
        };
        let name = &rest[open + 1..open + close_rel];
        out.push_str(&choose(name));
        rest = &rest[open + close_rel + 1..];
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn all_template_slots_resolve_to_pools() {
        for domain in DOMAINS {
            for template in domain.line1.iter().chain(domain.line2).chain(domain.line3) {
                for slot in template_slots(template) {
                    assert!(
                        domain.pools.iter().any(|pool| pool.name == slot),
                        "domain {} template {template:?} references unknown slot {slot}",
                        domain.name
                    );
                }
            }
        }
    }

    #[test]
    fn pools_have_multiple_options_with_salience_spread() {
        for domain in DOMAINS {
            for pool in domain.pools {
                assert!(
                    pool.options.len() >= 3,
                    "{}/{} too small",
                    domain.name,
                    pool.name
                );
                let max = pool
                    .options
                    .iter()
                    .map(|p| p.salience)
                    .fold(f64::MIN, f64::max);
                let min = pool
                    .options
                    .iter()
                    .map(|p| p.salience)
                    .fold(f64::MAX, f64::min);
                if pool.decor {
                    assert!(
                        pool.options.iter().all(|p| p.salience == 0.0),
                        "decor must be neutral"
                    );
                } else if pool.name != "city" && pool.name != "style" {
                    assert!(
                        max - min > 0.5,
                        "{}/{} has no spread",
                        domain.name,
                        pool.name
                    );
                }
            }
        }
    }

    #[test]
    fn phrases_are_normalized_text() {
        for domain in DOMAINS {
            for pool in domain.pools {
                for opt in pool.options {
                    assert_eq!(
                        opt.text,
                        opt.text.to_lowercase(),
                        "phrase {:?} not lowercase",
                        opt.text
                    );
                    assert!(!opt.text.is_empty());
                }
            }
        }
    }

    #[test]
    fn query_dependent_salience_exists() {
        // At least a few phrase texts must appear in multiple domains with
        // materially different salience — the M3-beats-M1 mechanism.
        let mut by_text: HashMap<&str, Vec<f64>> = HashMap::new();
        for domain in DOMAINS {
            for pool in domain.pools {
                if pool.decor {
                    continue;
                }
                for opt in pool.options {
                    by_text.entry(opt.text).or_default().push(opt.salience);
                }
            }
        }
        let conflicted = by_text
            .values()
            .filter(|sals| {
                sals.len() >= 2 && {
                    let max = sals.iter().cloned().fold(f64::MIN, f64::max);
                    let min = sals.iter().cloned().fold(f64::MAX, f64::min);
                    max - min > 0.5
                }
            })
            .count();
        assert!(conflicted >= 4, "only {conflicted} query-dependent phrases");
    }

    #[test]
    fn template_slot_parsing() {
        assert_eq!(template_slots("{a} and {b}"), vec!["a", "b"]);
        assert_eq!(template_slots("no slots"), Vec::<&str>::new());
        assert_eq!(template_slots("{only}"), vec!["only"]);
    }

    #[test]
    fn render_substitutes() {
        let rendered = render_template("{offer} flights to {city}", |slot| match slot {
            "offer" => "save 20%".to_string(),
            "city" => "tokyo".to_string(),
            other => panic!("unexpected slot {other}"),
        });
        assert_eq!(rendered, "save 20% flights to tokyo");
    }

    #[test]
    fn render_handles_unclosed_brace() {
        let rendered = render_template("broken {slot", |_| "x".to_string());
        assert_eq!(rendered, "broken {slot");
    }

    #[test]
    fn domains_have_enough_variety() {
        assert!(DOMAINS.len() >= 4);
        for d in DOMAINS {
            assert!(d.keywords.len() >= 3);
            assert!(d.line1.len() >= 2);
            assert!(
                d.line2.len() >= 4,
                "{} needs template variety for position diversity",
                d.name
            );
            assert!(
                d.pools.iter().any(|p| p.decor),
                "{} needs decor pools",
                d.name
            );
        }
    }
}
