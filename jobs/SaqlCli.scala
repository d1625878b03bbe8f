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

  def main(args: Array[String]): Unit = {
    require(args.nonEmpty, "usage: SaqlCli <query-name|query-file> [options]")
    val opts = args.drop(1).sliding(2, 2).collect {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
    }.toMap
    val sf = opts.get("sf").map(_.toDouble).getOrElse(0.01)
    val attackStart = opts.get("attack-start").map(_.toLong).getOrElse(1_800_000L)

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

      var stream = AttackTrace.withBackground(spark, sf = sf,
        attackStartMs = attackStart)
      val agents = opts.get("agents").toSeq
        .flatMap(_.split(',').toSeq.map(_.toLong))
      stream = StreamReplayer.select(stream, agents,
        opts.get("start").map(_.toLong).getOrElse(0L),
        opts.get("end").map(_.toLong).getOrElse(Long.MaxValue))

      val alerts = QueryEngine.run(stream, plan)
      if (alerts.isEmpty) println("[saql] no alerts")
      else alerts.foreach(a => println(s"[saql] ALERT $a"))
    } finally spark.stop()
  }
}
