package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.{col, lit, when}
import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalacheck.rng.Seed
import repro.SparkSpec
import repro.events.AttackTrace
import repro.saql.Parser
import repro.saql.Ast.SaqlQuery
import TestEvents.{df, file, net}

/** The scheduler's dependents fed batch by batch: however a `ts`-ordered
  * master copy is cut, the batches' alerts and the flush are the alerts of
  * the whole copy fed at once.
  */
class DependentsSpec extends SparkSpec {

  private lazy val attack = AttackTrace.withBackground(spark, sf = 0.002, seed = 0,
    attackStartMs = 1_800_000L).cache()
  private lazy val demo = repro.queries.DemoQueries.all().map(_._2)

  /** The master copy of `events` for `queries`: its columns, and its rows in `ts` order. */
  private def sortedCopy(events: DataFrame, queries: Seq[SaqlQuery]): (Seq[String], Seq[Row]) = {
    val copy = new Dependents(queries.map(Columns.compile)).copy(events)
    val ts = copy.columns.indexOf("ts")
    (copy.columns.toSeq, copy.collect().toSeq.sortBy(_.getLong(ts)))
  }

  /** Each query's alerts from `batches` fed in turn and then flushed, as
    * sorted multisets.
    */
  private def fed(queries: Seq[SaqlQuery], batches: Seq[Seq[Row]]): Map[String, Seq[String]] = {
    val dependents = new Dependents(queries.map(Columns.compile))
    val alerts = (batches.flatMap(dependents.feed) ++ dependents.flush()).groupBy(_.query)
    queries.map(q => q.name -> alerts.getOrElse(q.name, Nil).map(_.toString).sorted).toMap
  }

  private def query(name: String, text: String): SaqlQuery = Parser.parse(text.stripMargin, name)

  private def batchAlerts(events: DataFrame, queries: Seq[SaqlQuery]): Map[String, Seq[String]] =
    Scheduler.runMasterDependent(events, queries).alerts.map { case (q, a) => q -> a.map(_.toString).sorted }

  /** `runIndependent`'s alerts for `queries` over `events`, as sorted multisets. */
  private def independentAlerts(events: DataFrame, queries: Seq[SaqlQuery]): Map[String, Seq[String]] =
    Scheduler.runIndependent(events, queries).alerts.map { case (q, a) => q -> a.map(_.toString).sorted }

  /** Whether `queries` fed `rows` in any cut raise `expected`: one batch, one
    * row per batch, and 20 ScalaCheck-chosen cuts (fixed seed).
    */
  private def anyCut(queries: Seq[SaqlQuery], rows: Seq[Row], expected: Map[String, Seq[String]]): Unit = {
    assert(fed(queries, Seq(rows)) == expected, "one batch")
    assert(fed(queries, rows.map(Seq(_))) == expected, "one row per batch")
    val cuts = Gen.choose(0, 50).flatMap(n => Gen.listOfN(n, Gen.choose(1, rows.size - 1)))
    val params = SCTest.Parameters.default.withMinSuccessfulTests(20).withInitialSeed(Seed(10L))
    val res = SCTest.check(params, Prop.forAll(cuts)(c => fed(queries, cut(rows, c)) == expected))
    assert(res.passed, res.status.toString)
  }

  /** `rows` cut before each of the positions `cuts`. */
  private def cut(rows: Seq[Row], cuts: Seq[Int]): Seq[Seq[Row]] = {
    val bounds = (0 +: cuts.sorted.distinct :+ rows.size).distinct
    bounds.zip(bounds.tail).map { case (from, to) => rows.slice(from, to) }
  }

  test("the 8 demo queries fed in any cut of the ts-ordered attack copy raise runMasterDependent's alerts") {
    val (_, rows) = sortedCopy(attack, demo)
    val expected = batchAlerts(attack, demo)
    assert(expected.values.count(_.nonEmpty) >= 6, expected)
    assert(fed(demo, Seq(rows)) == expected, "one batch")
    val fifty = cut(rows, (1 until 50).map(_ * rows.size / 50))
    assert(fifty.size == 50 && fed(demo, fifty) == expected, "50 batches")
    val cuts = Gen.choose(0, 50).flatMap(n => Gen.listOfN(n, Gen.choose(1, rows.size - 1)))
    val params = SCTest.Parameters.default.withMinSuccessfulTests(20).withInitialSeed(Seed(10L))
    val res = SCTest.check(params, Prop.forAll(cuts)(c => fed(demo, cut(rows, c)) == expected))
    assert(res.passed, res.status.toString)
  }

  test("stateful queries that share a window and group keys raise runIndependent's alerts in any cut") {
    val queries = Seq(
      // One table: #time(10 min), group by p.
      query("subsumed_sum_avg",
        """proc p["%x.exe"] write ip i as evt #time(10 min)
          |state ss { s := sum(evt.amount)
          |a := avg(evt.amount) } group by p
          |alert ss.s > 1000
          |return p, ss.s, ss.a"""),
      query("history_count_max_min",
        """proc p write ip i as evt #time(10 min)
          |state[3] ss { n := count(evt.amount)
          |hi := max(evt.amount)
          |lo := min(evt.amount) } group by p
          |alert ss[0].n >= ss[2].n
          |return p, ss[0].n, ss[1].n, ss[2].n, ss[0].hi, ss[0].lo"""),
      query("disjoint_sets",
        """proc p read ip i as evt #time(10 min)
          |state ss { ips := set(i.dstip)
          |amounts := set(evt.amount) } group by p
          |return p, ss.ips, ss.amounts"""),
      query("late_invariant",
        """proc p["%late.exe"] write ip i as evt #time(10 min)
          |state ss { ips := set(i.dstip) } group by p
          |invariant[2][offline] {
          |  a := empty_set
          |  a = a union ss.ips
          |}
          |alert |ss.ips diff a| > 0
          |return p, ss.ips"""),
      // A second, sliding table: #time(10 min, 5 min), group by p.
      query("sliding_sum",
        """proc p write ip i as evt #time(10 min, 5 min)
          |state ss { s := sum(evt.amount) } group by p
          |return p, ss.s"""),
      query("sliding_subsumed_count",
        """proc p["%x.exe"] write ip i as evt #time(10 min, 5 min)
          |state ss { n := count(evt.amount) } group by p
          |return p, ss.n"""))
    // 80 min of events, one every 30 s per process; late.exe starts in
    // window 4, so its invariant trains on windows 4 and 5.
    val evs = (0 until 160).flatMap { i =>
      val t = i * 30_000L
      val late = Seq("9.9.9.1", "9.9.9.1", "9.9.9.2", "9.9.9.3")
      Seq(net(0, t, "x.exe", s"10.0.0.${i % 3}", if (i % 7 == 3) -1L else 100L * (i % 11)),
        net(0, t + 1, "y.exe", s"10.0.1.${i % 4}", if (i % 5 == 1) -1L else 50L * (i % 5),
          op = if (i % 3 == 0) "read" else "write")) ++
        (if (i >= 80) Seq(net(0, t + 2, "late.exe", late(math.min(i / 20 - 4, 3)), 10L)) else Nil)
    }
    // -1 stands for a null amount.
    val events = df(spark, evs).withColumn("amount",
      when(col("amount") >= 0, col("amount")).otherwise(lit(null).cast("long")))
    val independent = Scheduler.runIndependent(events, queries).alerts
    assert(queries.forall(q => independent(q.name).nonEmpty), independent)
    // Trained on windows 4 and 5, the invariant sees new addresses in 6 and 7.
    assert(independent("late_invariant").map(_.win) == Seq(6L, 7L))
    val expected = independent.map { case (q, a) => q -> a.map(_.toString).sorted }
    val (_, rows) = sortedCopy(events, queries)
    anyCut(queries, rows, expected)
  }

  test("a pattern's event that arrives before the earlier patterns' still completes the match") {
    def shared(name: String, exes: String*): SaqlQuery = Parser.parse(
      exes.zipWithIndex.map { case (e, i) =>
        s"""proc p$i["%$e"] ${if (i == 0) "write" else "read"} file f1 as evt$i"""
      }.mkString("", "\n", "\nreturn p0, f1"), name)
    val queries = Seq(shared("two", "a.exe", "b.exe"), shared("three", "a.exe", "b.exe", "c.exe"))
    // Without `with`, the patterns are in no time order: the later patterns' events come first.
    val evs = Seq(file(0, 1000L, "c.exe", "read", "/x"), file(0, 1500L, "b.exe", "read", "/y"),
      file(0, 2000L, "b.exe", "read", "/x"), file(0, 3000L, "a.exe", "write", "/x"))
    val events = df(spark, evs)
    val (_, rows) = sortedCopy(events, queries)
    val oneByOne = fed(queries, rows.map(Seq(_)))
    assert(oneByOne == batchAlerts(events, queries))
    assert(oneByOne == queries.map(q => q.name -> Seq(s"[${q.name}] ts=3000 win=-1 f1=/x, p0=a.exe")).toMap)
  }

  test("more than 64 distinct atoms fill two atom words, and a pattern with bits in both raises runIndependent's alerts in any cut") {
    // Atoms in plan order: each rule adds 2 (after the shared type and op),
    // each stateful query 2 (after `network`): 42 + 1 + 28 = 71, then 2 for `chained`.
    val rules = (0 until 20).map(i => query(f"rule_$i%02d",
      s"""proc p["%a$i.exe"] write file f["/d$i"] as evt
         |return p, f"""))
    val sums = (0 until 14).map(j => query(f"sum_$j%02d",
      s"""proc p["%s$j.exe"] write ip i[dstip = "10.0.$j.1"] as evt #time(10 s)
         |state ss { n := count(evt.amount)
         |s := sum(evt.amount) } group by p
         |alert ss.s > 0
         |return p, ss.n, ss.s"""))
    val chained = query("chained",
      """proc p1["%a1.exe"] write file f1["/d1"] as evt1
        |proc p2["%z.exe"] read file f1 as evt2
        |with evt1 -> evt2
        |return p1, p2, f1""")
    val queries = rules ++ sums :+ chained
    val plans = queries.map(Columns.compile)
    val index = plans.flatMap(_.conjunctions).flatten.distinct.zipWithIndex.toMap
    def straddles(q: SaqlQuery): Boolean = plans(queries.indexOf(q)).conjunctions.exists { c =>
      c.map(index).exists(_ < 64) && c.map(index).exists(_ >= 64)
    }
    assert(index.size == 73 && straddles(chained) && straddles(sums(10)), index.size)
    val evs = (0 until 60).flatMap { t =>
      val i = t % 20
      val j = t % 14
      Seq(file(0, t * 1000L, s"a$i.exe", "write", s"/d$i"), file(0, t * 1000L + 1, s"a$i.exe", "write", s"/d${i + 1}"),
        net(0, t * 1000L + 2, s"s$j.exe", s"10.0.$j.1", 10L * t), net(0, t * 1000L + 3, s"s$j.exe", s"10.0.${j + 1}.1", 7L),
        file(0, t * 1000L + 4, "z.exe", "read", if (t % 2 == 0) "/d1" else "/d2"))
    }
    val events = df(spark, evs)
    val expected = independentAlerts(events, queries)
    assert(queries.forall(q => expected(q.name).nonEmpty), expected)
    assert(batchAlerts(events, queries) == expected)
    val (columns, rows) = sortedCopy(events, queries)
    assert(columns.filter(_.startsWith("__atoms")) == Seq("__atoms0", "__atoms1"))
    anyCut(queries, rows, expected)
  }

  test("an atom that is null on a copied row leaves its bit unset, so its patterns raise runIndependent's alerts") {
    // `all_*` copy the rows with a null file name; `not_x*` must not count them.
    val queries = Seq(
      query("not_x", """proc p["%a.exe"] write file f[name != "/x"] as evt
                       |return p, f"""),
      query("all_a", """proc p["%a.exe"] write file f as evt
                       |return p"""),
      query("not_x_count", """proc p write file f[name != "/x"] as evt #time(10 s)
                             |state ss { n := count(evt.amount) } group by p
                             |return p, ss.n"""),
      query("all_count", """proc p write file f as evt #time(10 s)
                           |state ss { n := count(evt.amount) } group by p
                           |return p, ss.n"""))
    val names = Seq("/x", null, "/y", null)
    val evs = (0 until 40).flatMap(t => Seq(
      file(0, t * 1000L, "a.exe", "write", names(t % 4)), file(0, t * 1000L + 1, "b.exe", "write", names((t + 1) % 4))))
    val events = df(spark, evs)
    val expected = independentAlerts(events, queries)
    assert(expected("not_x").size == 10 && expected("all_a").size == 40, expected)
    assert(expected("not_x_count") != expected("all_count"))
    assert(batchAlerts(events, queries) == expected)
    val (_, rows) = sortedCopy(events, queries)
    anyCut(queries, rows, expected)
  }
}
