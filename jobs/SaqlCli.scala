package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.{Columns, QueryEngine}
import repro.events.{AttackTrace, StreamReplayer}
import repro.queries.DemoQueries
import repro.saql.Parser

/** The demo's command-line UI (paper Fig. 3): issue a SAQL query against
  * the replayed system-monitoring stream and print the alerts.
  *
  * Usage (spark-submit --class repro.jobs.SaqlCli):
  *   SaqlCli <query>            query = demo query name prefix (r1..r5,
  *                              a1..a3), or a path to a .saql file
  *   [--sf 0.01] [--attack-start 1800000] [--agents 0,1]
  *   [--start 0] [--end <ms>]   replay window, as in the stream replayer UI
  */
object SaqlCli {
  private val usage = "usage: SaqlCli <query-name|query-file> [--sf 0.01] " +
    "[--attack-start 1800000] [--agents 0,1] [--start 0] [--end <ms>]"
  private val options = Set("--sf", "--attack-start", "--agents", "--start", "--end")

  def main(args: Array[String]): Unit = {
    def bad(what: String): Nothing = throw new IllegalArgumentException(s"$usage ($what)")
    if (args.isEmpty) bad("no query")
    // Every option is checked here, before Spark starts.
    val opts = args.drop(1).grouped(2).map {
      case Array(k, v) if options(k) => k -> v
      case a => bad(s"bad option '${a.head}'" + (if (options(a.head)) " (no value)" else ""))
    }.toMap
    def opt[A](key: String, default: A)(parse: String => Option[A]): A =
      opts.get(key).fold(default)(v => parse(v).getOrElse(bad(s"bad value '$v' for $key")))
    val sf = opt("--sf", 0.01)(_.toDoubleOption.filter(_ > 0))
    val attackStart = opt("--attack-start", 1_800_000L)(_.toLongOption)
    val agents = opt("--agents", Seq.empty[Long]) { a =>
      val ids = a.split(',').toSeq.map(_.toLongOption)
      Option.when(ids.forall(_.isDefined))(ids.flatten)
    }
    val start = opt("--start", 0L)(_.toLongOption)
    val end = opt("--end", Long.MaxValue)(_.toLongOption)

    val q = DemoQueries.all().map(_._2)
      .find(_.name.startsWith(args(0) + "_")).getOrElse {
        val src = new String(
          java.nio.file.Files.readAllBytes(java.nio.file.Paths.get(args(0))))
        Parser.parse(src, args(0))
      }
    val plan = Columns.compile(q) // reject a malformed query before Spark starts
    println(s"[saql] executing query '${q.name}' (${q.modelType})")

    val spark = SparkSession.builder().appName("saql-cli")
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]")).getOrCreate()
    try {
      val stream = StreamReplayer.select(
        AttackTrace.withBackground(spark, sf = sf, attackStartMs = attackStart),
        agents, start, end)

      val alerts = QueryEngine.run(stream, plan)
      if (alerts.isEmpty) println("[saql] no alerts")
      else alerts.foreach(a => println(s"[saql] ALERT $a"))
    } finally spark.stop()
  }
}
